package geom

import (
	"math"
	"testing"
)

// FuzzTOPBOTEnvelope checks the soundness invariants of the dual surfaces on
// arbitrary polyhedra: BOT^P(a) ≤ TOP^P(a) at every slope, the surfaces are
// never NaN, and they reach ±Inf only when a recession ray demands it (the
// paper's Proposition 2.2 reduction treats ±Inf as the honest value of an
// unbounded support problem, never as a rounding artifact).
func FuzzTOPBOTEnvelope(f *testing.F) {
	f.Add(0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.5)
	f.Add(-1.0, 2.0, 3.0, -4.0, 0.5, 0.5, 1.0, 1.0, -2.0)
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 3.0)
	f.Add(2.0, 3.0, 2.0, 3.0, 2.0, 3.0, 0.0, 0.0, 0.0)
	f.Add(0.0, 0.0, 1e-300, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0)
	f.Fuzz(func(t *testing.T, x0, y0, x1, y1, x2, y2, rx, ry, a float64) {
		for _, v := range []float64{x0, y0, x1, y1, x2, y2, rx, ry, a} {
			if math.IsNaN(v) || math.Abs(v) > 1e6 {
				t.Skip("outside the modeled coordinate range")
			}
		}
		verts := []Point{{x0, y0}, {x1, y1}, {x2, y2}}
		var rays []Point
		if rx != 0 || ry != 0 {
			rays = append(rays, Point{rx, ry})
		}
		p, err := FromVertices(verts, rays)
		if err != nil {
			t.Skip(err)
		}
		top, bot := TopEnvelope2(p), BotEnvelope2(p)
		gt, gb := top.Eval(a), bot.Eval(a)
		if math.IsNaN(gt) || math.IsNaN(gb) {
			t.Fatalf("NaN surface at a=%v: TOP=%v BOT=%v", a, gt, gb)
		}
		if gb > gt+1e-6 {
			t.Fatalf("BOT(%v)=%v above TOP(%v)=%v", a, gb, a, gt)
		}
		if p.IsBounded() && (math.IsInf(gt, 0) || math.IsInf(gb, 0)) {
			t.Fatalf("infinite surface on a bounded polyhedron: TOP=%v BOT=%v", gt, gb)
		}
		// TOP(a) = sup(y − a·x) diverges only along a ray with positive
		// objective; BOT only along one with negative objective.
		rayMax, rayMin := math.Inf(-1), math.Inf(1)
		for _, r := range p.Rays {
			obj := r[1] - a*r[0]
			rayMax = math.Max(rayMax, obj)
			rayMin = math.Min(rayMin, obj)
		}
		if math.IsInf(gt, 1) && !(rayMax > -Eps) {
			t.Fatalf("TOP(%v)=+Inf but no recession ray demands it (max ray objective %v)", a, rayMax)
		}
		if math.IsInf(gb, -1) && !(rayMin < Eps) {
			t.Fatalf("BOT(%v)=−Inf but no recession ray demands it (min ray objective %v)", a, rayMin)
		}
		// The refinement kernel is the support scan, bit for bit.
		slope := []float64{a}
		st, sb := p.Top(slope), p.Bot(slope)
		packed := p
		g := packed.Pack()
		if kt, kb := g.Top(slope), g.Bot(slope); math.Float64bits(kt) != math.Float64bits(st) || math.Float64bits(kb) != math.Float64bits(sb) {
			t.Fatalf("kernel TOP/BOT(%v) = %v/%v, support scan %v/%v", a, kt, kb, st, sb)
		}
		// What the restricted path's decided-by-key rule rests on: a finite
		// envelope value (the tree key) is within δ(a) of the support scan
		// (the predicate).
		if d := EnvelopeSlack(a); !math.IsInf(gt, 0) && !(math.Abs(gt-st) <= d) {
			t.Fatalf("TOP(%v): envelope %v, support scan %v, apart by more than δ = %v", a, gt, st, d)
		} else if !math.IsInf(gb, 0) && !(math.Abs(gb-sb) <= d) {
			t.Fatalf("BOT(%v): envelope %v, support scan %v, apart by more than δ = %v", a, gb, sb, d)
		}
	})
}

package geom

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// FuzzStripExtrema checks Generators.StripExtrema on polyhedra of four
// vertices and up to two rays — rays leaning either way and vertical,
// segments, points, vertices sharing x — over arbitrary half strips, in terms
// of the convex u = TOP, resp. u = −BOT. Against the kernel: u's max over a
// half strip is the kernel at an end, bit for bit; its min exceeds no kernel
// sample of the half strip by more than the kernel's rounding, lies within
// that rounding of the kernel at some candidate slope — an end, a crossing of
// two vertices' dual lines, the last slope before a ray fires — and is +Inf
// exactly when the kernel is at every candidate. Against the envelope:
// within EnvelopeSlack of MaxOn/MinOn wherever the two see the same finite
// domain, i.e. no ray's domain end lies in or near the half strip. And
// Tangents at the three slopes names a vertex attaining the kernel.
func FuzzStripExtrema(f *testing.F) {
	f.Add(-2.0, 0.0, 2.0, 0.0, 0.0, 1.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.25, 2.0)                // diamond: both minima inside
	f.Add(-3.0, 1.0, 1.0, 4.0, 4.0, -2.0, 0.5, -3.0, 0.0, 0.0, 0.0, 0.0, -2.0, 0.1, 1.5)                // quadrilateral
	f.Add(-4.0, 1.0, 6.0, -2.0, 6.0, -2.0, -4.0, 1.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 3.0)               // segment
	f.Add(7.0, -3.0, 7.0, -3.0, 7.0, -3.0, 7.0, -3.0, 0.0, 0.0, 0.0, 0.0, -1e6, 0.0, 1e6)               // point
	f.Add(2.0, 2.0, 2.0, 9.0, 2.0, 5.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, -2.0, -0.5, 2.0)                 // coincident x
	f.Add(0.0, 10.0, 5e-10, 10-1e-10, 1e-9, 10-2e-10, -3.0, 2.0, 0.0, -1.0, 0.0, 0.0, -2.5, -2.0, -1.5) // alignedVertices
	f.Add(0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.5, 1.0, 3.0)                    // r_x > 0, a at its domain end
	f.Add(0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0, -1.0, 1.0, 0.0, 0.0, -3.0, -1.0, 2.0)                 // r_x < 0, a at its domain end
	f.Add(-2.0, 5.0, 0.0, 8.0, 3.0, 4.0, 3.0, 4.0, 0.0, -1.0, 0.0, 0.0, -1.0, 0.0, 1.0)                 // vertical ray
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, -1.0, -1.0, -1.0, -3.0, 2.0, 3.0)                // TOP finite inside only
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1e-3, 1.0, 999.9999995, 1000.0, 1001.0)     // steep cone
	f.Add(-1e6, 0.0, -1e6, 0.0, -1e6, 0.0, -1e6, 0.0, 1.0, 0.0, 0.0, 0.0, -1.0, -5e-10, 0.5)            // finite Eps/r_x before the domain end
	f.Fuzz(func(t *testing.T, x0, y0, x1, y1, x2, y2, x3, y3, rx0, ry0, rx1, ry1, s0, s1, s2 float64) {
		for _, v := range []float64{x0, y0, x1, y1, x2, y2, x3, y3, rx0, ry0, rx1, ry1, s0, s1, s2} {
			if math.IsNaN(v) || math.Abs(v) > MaxCoord {
				t.Skip("outside the modeled coordinate range")
			}
		}
		var rays []Point
		for _, r := range []Point{{rx0, ry0}, {rx1, ry1}} {
			if !r.IsZero() {
				rays = append(rays, r)
			}
		}
		checkStripExtrema(t, []Point{{x0, y0}, {x1, y1}, {x2, y2}, {x3, y3}}, rays, s0, s1, s2)
	})
}

// checkStripExtrema is FuzzStripExtrema's check of one polyhedron
// conv(verts) + cone(rays) and one strip (its three slopes in any order).
func checkStripExtrema(t *testing.T, verts, rays []Point, s0, s1, s2 float64) {
	t.Helper()
	p, err := FromVertices(verts, rays)
	if err != nil {
		t.Skip(err)
	}
	// Each ray alone beside the vertices: its kernel is +Inf where that
	// ray fires.
	var alone []Generators
	for _, r := range rays {
		pr, err := FromVertices(verts, []Point{r})
		if err != nil {
			t.Fatal(err)
		}
		alone = append(alone, pr.Pack())
	}
	s := []float64{s0, s1, s2}
	slices.Sort(s)
	envs := [2]Envelope{TopEnvelope2(p), BotEnvelope2(p)}
	g := p.Pack()
	top, bot := g.StripExtrema(s[0], s[1], s[2])
	// At each of the three slopes Tangents names the x of a vertex whose dual
	// line takes the kernel's value there, bit for bit, and NaN exactly where
	// the kernel is not finite.
	for _, b := range s {
		var xs [2]float64
		xs[0], xs[1] = g.Tangents(b)
		for i, want := range []float64{g.Top([]float64{b}), g.Bot([]float64{b})} {
			if math.IsInf(want, 0) != math.IsNaN(xs[i]) {
				t.Fatalf("%s at %v of %v + cone%v: kernel %v, tangent x %v", [2]string{"TOP", "BOT"}[i], b, p.Verts, p.Rays, want, xs[i])
			}
			attains := math.IsNaN(xs[i])
			for _, v := range p.Verts {
				line, err := FromVertices([]Point{v}, nil)
				if err != nil {
					t.Fatal(err)
				}
				lg := line.Pack()
				at := [2]float64{lg.Top([]float64{b}), lg.Bot([]float64{b})}[i]
				attains = attains || v[0] == xs[i] && math.Float64bits(at) == math.Float64bits(want)
			}
			if !attains {
				t.Fatalf("%s at %v of %v + cone%v: no vertex at x = %v takes the kernel's %v", [2]string{"TOP", "BOT"}[i], b, p.Verts, p.Rays, xs[i], want)
			}
		}
	}
	var X, Y float64
	for _, v := range p.Verts {
		X, Y = max(X, math.Abs(v[0])), max(Y, math.Abs(v[1]))
	}
	for i, sgn := range []float64{1, -1} {
		u := func(g *Generators, b float64) float64 {
			if sgn > 0 {
				return g.Top([]float64{b})
			}
			return -g.Bot([]float64{b})
		}
		// u's max and min over each half strip, as StripExtrema reports them.
		got := top
		halves := [2][4]float64{{s[0], s[1], got.MaxPrev, got.MinPrev}, {s[1], s[2], got.MaxNext, got.MinNext}}
		if sgn < 0 {
			got = bot
			halves = [2][4]float64{{s[0], s[1], -got.MinPrev, -got.MaxPrev}, {s[1], s[2], -got.MinNext, -got.MaxNext}}
		}
		for j, hs := range halves {
			l, h, gotMax, gotMin := hs[0], hs[1], hs[2], hs[3]
			where := func() string {
				return fmt.Sprintf("%s over %s half [%v, %v] of %v + cone%v", [2]string{"TOP", "−BOT"}[i], [2]string{"prev", "next"}[j], l, h, p.Verts, p.Rays)
			}
			if want := max(u(&g, l), u(&g, h)); math.Float64bits(gotMax) != math.Float64bits(want) {
				t.Fatalf("%s: max %v, kernel at the ends %v", where(), gotMax, want)
			}
			cands := []float64{l, h}
			for a, v := range p.Verts {
				for _, w := range p.Verts[a+1:] {
					if b := (v[1] - w[1]) / (v[0] - w[0]); b > l && b < h {
						cands = append(cands, b)
					}
				}
			}
			for k := range alone {
				fires := func(b float64) bool { return math.IsInf(u(&alone[k], b), 1) }
				switch fl, fh := fires(l), fires(h); {
				case fl && !fh:
					cands = append(cands, lastNotFiring(fires, h, l))
				case fh && !fl:
					cands = append(cands, lastNotFiring(fires, l, h))
				}
			}
			tol := 16 * 0x1p-53 * (max(math.Abs(l), math.Abs(h))*X + Y)
			least := math.Inf(1)
			for _, b := range cands {
				least = min(least, u(&g, b))
			}
			if math.IsInf(gotMin, 1) != math.IsInf(least, 1) || !math.IsInf(least, 1) && !(math.Abs(gotMin-least) <= tol) {
				t.Fatalf("%s: min %v, least kernel value at a candidate %v (tolerance %v)", where(), gotMin, least, tol)
			}
			const n = 64
			for k := 1; k < n; k++ {
				b := min(l+(h-l)*float64(k)/n, h)
				if v := u(&g, b); !math.IsInf(v, 1) && !(gotMin <= v+tol) {
					t.Fatalf("%s: min %v above the kernel's %v at %v (tolerance %v)", where(), gotMin, v, b, tol)
				}
			}
			near := false
			for _, r := range p.Rays {
				if math.Abs(r[0]) > Eps {
					d, w := r[1]/r[0], 2*Eps/math.Abs(r[0])
					near = near || d >= l-w && d <= h+w
				}
			}
			if near {
				continue
			}
			e := envs[i]
			eMax, eMin := e.MaxOn(l, h), e.MinOn(l, h)
			if sgn < 0 {
				eMax, eMin = -e.MinOn(l, h), -e.MaxOn(l, h)
			}
			d := EnvelopeSlack(max(math.Abs(l), math.Abs(h)))
			for _, c := range [][2]float64{{gotMax, eMax}, {gotMin, eMin}} {
				if math.IsInf(c[0], 0) || math.IsInf(c[1], 0) {
					if c[0] != c[1] {
						t.Fatalf("%s: %v, envelope %v", where(), c[0], c[1])
					}
				} else if !(math.Abs(c[0]-c[1]) <= d) {
					t.Fatalf("%s: %v, envelope %v, apart by more than δ = %v", where(), c[0], c[1], d)
				}
			}
		}
	}
}

// lastNotFiring bisects the floats between in and out for the one nearest
// out at which fires is false, given fires(out) and not fires(in) and a
// monotone fires in between.
func lastNotFiring(fires func(float64) bool, in, out float64) float64 {
	// ord maps floats to integers in the same order.
	ord := func(x float64) int64 {
		b := math.Float64bits(x)
		if b>>63 == 0 {
			return int64(b)
		}
		return -int64(b &^ (1 << 63))
	}
	unord := func(o int64) float64 {
		if o >= 0 {
			return math.Float64frombits(uint64(o))
		}
		return math.Float64frombits(uint64(-o) | 1<<63)
	}
	for {
		oi, oo := ord(in), ord(out)
		m := unord(oi/2 + oo/2 + (oi%2+oo%2)/2)
		if m == in || m == out {
			return in
		}
		if fires(m) {
			out = m
		} else {
			in = m
		}
	}
}

// TestStripExtremaSampled is FuzzStripExtrema's seeded twin: random polygons,
// segments and points of up to four vertices — some sharing x, some within
// Eps of one another in x — with up to two rays, over strips of random width
// whose slopes sit at random, on a crossing of two dual lines, or on, Eps/r_x
// from or an ulp from a ray's domain end.
func TestStripExtremaSampled(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	coord := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return float64(rng.Intn(21) - 10)
		case 1:
			return rng.NormFloat64() * 1e5
		default:
			return rng.NormFloat64() * 20
		}
	}
	for trial := 0; trial < 4000; trial++ {
		verts := make([]Point, 1+rng.Intn(4))
		for i := range verts {
			verts[i] = Point{coord(), coord()}
			if i > 0 && rng.Intn(4) == 0 { // x shared with, or within Eps of, the previous vertex
				verts[i][0] = verts[i-1][0] + float64(rng.Intn(3))*4e-10
			}
		}
		var rays []Point
		for n := rng.Intn(3); len(rays) < n; {
			if ang := rng.Float64() * 2 * math.Pi; rng.Intn(4) == 0 {
				rays = append(rays, Point{float64(rng.Intn(3) - 1), float64(rng.Intn(3) - 1)})
			} else {
				rays = append(rays, Point{math.Cos(ang), math.Sin(ang)})
			}
		}
		var s [3]float64
		for i := range s {
			s[i] = rng.NormFloat64() * 3
			switch k := rng.Intn(6); {
			case k == 0 && len(rays) > 0:
				r := rays[rng.Intn(len(rays))]
				s[i] = r[1] / r[0]
				switch rng.Intn(3) {
				case 0:
					s[i] += float64(rng.Intn(3)-1) * Eps / r[0]
				case 1:
					s[i] = math.Nextafter(s[i], math.Inf(rng.Intn(2)*2-1))
				}
			case k == 1 && len(verts) > 1:
				v, w := verts[0], verts[1]
				s[i] = (v[1] - w[1]) / (v[0] - w[0])
			}
			if math.IsNaN(s[i]) || math.Abs(s[i]) > MaxCoord {
				s[i] = 0
			}
		}
		checkStripExtrema(t, verts, rays, s[0], s[1], s[2])
	}
}

package constraint

import (
	"math"
	"math/rand"
	"testing"

	"dualcdb/internal/geom"
)

// randConstraints draws one constraint set in E^dim of a shape the kernel
// must agree with the reference on: a bounded cell around a centre, an
// unbounded wedge, a slab (its extension contains a line), a single point,
// an unsatisfiable pair, or no constraint at all.
func randConstraints(rng *rand.Rand, dim int) []geom.HalfSpace {
	scale := []float64{1, 50, 1e3, 1e5}[rng.Intn(4)]
	unit := func() []float64 {
		a := make([]float64, dim)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		return a
	}
	centre := unit()
	for i := range centre {
		centre[i] *= scale
	}
	// at returns the half-space a·x ≤ a·centre + r.
	at := func(a []float64, r float64) geom.HalfSpace {
		return geom.HalfSpace{A: a, C: -(geom.Point(a).Dot(centre) + r), Op: geom.LE}
	}
	neg := func(a []float64) []float64 { return geom.Point(a).Scale(-1) }
	var hs []geom.HalfSpace
	switch shape := rng.Intn(10); {
	case shape < 4: // bounded: a box plus a few random cuts
		for i := 0; i < dim; i++ {
			e := make([]float64, dim)
			e[i] = 1
			hs = append(hs, at(e, rng.Float64()*scale), at(neg(e), rng.Float64()*scale))
		}
		for n := rng.Intn(4); n > 0; n-- {
			hs = append(hs, at(unit(), rng.Float64()*scale))
		}
	case shape < 6: // unbounded: fewer cuts than it takes to close a cell
		for n := 1 + rng.Intn(dim); n > 0; n-- {
			hs = append(hs, at(unit(), rng.Float64()*scale))
		}
	case shape == 6: // slab
		a := unit()
		hs = append(hs, at(a, scale), at(neg(a), scale))
	case shape == 7: // single point
		for i := 0; i < dim; i++ {
			e := make([]float64, dim)
			e[i] = 1
			hs = append(hs, at(e, 0), at(neg(e), 0))
		}
	case shape == 8: // unsatisfiable
		a := unit()
		hs = append(hs, at(a, -scale), at(neg(a), -scale))
	}
	return hs
}

// TestSurfaceKernelBitIdentical: on 12 000 seeded random constraint sets in
// E² and E³ — bounded, unbounded, with lineality, single points, empty —
// Tuple.Top/Bot (the packed generator kernel refinement runs on) return
// the very bits of Polyhedron.Top/Bot on the same extension, at 8 slopes
// each; Matches agrees with Proposition 2.2 spelled out on the reference;
// and in E² a finite envelope value lies within geom.EnvelopeSlack of the
// reference wherever the generators are inside the modeled range — the
// inequality the restricted path's decided-by-key rule rests on.
func TestSurfaceKernelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	shapes := map[string]int{}
	for n := 0; n < 12000; n++ {
		dim := 2 + n%2
		tp, err := NewTuple(dim, randConstraints(rng, dim))
		if err != nil {
			t.Fatal(err)
		}
		ext, err := tp.Extension()
		if err != nil {
			t.Fatal(err)
		}
		inRange := true
		for _, v := range ext.Verts {
			for _, c := range v {
				inRange = inRange && math.Abs(c) <= 1e6
			}
		}
		switch {
		case ext.IsEmpty():
			shapes["empty"]++
		case ext.IsBounded():
			shapes["bounded"]++
		default:
			shapes["unbounded"]++
		}
		for s := 0; s < 8; s++ {
			slope := make([]float64, dim-1)
			for i := range slope {
				slope[i] = rng.NormFloat64() * []float64{0.1, 1, 30}[rng.Intn(3)]
			}
			if s == 0 && len(ext.Rays) > 0 { // a ray's critical slope, where ±Inf flips
				if r := ext.Rays[rng.Intn(len(ext.Rays))]; r[0] != 0 {
					slope[0] = r[dim-1] / r[0]
				}
			}
			wantTop, wantBot := ext.Top(slope), ext.Bot(slope)
			top, err1 := tp.Top(slope)
			bot, err2 := tp.Bot(slope)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if math.Float64bits(top) != math.Float64bits(wantTop) || math.Float64bits(bot) != math.Float64bits(wantBot) {
				t.Fatalf("%v at %v: kernel TOP/BOT %v/%v (%x/%x), reference %v/%v (%x/%x)", tp, slope,
					top, bot, math.Float64bits(top), math.Float64bits(bot),
					wantTop, wantBot, math.Float64bits(wantTop), math.Float64bits(wantBot))
			}
			b := rng.NormFloat64() * 100
			if !ext.IsEmpty() && !math.IsInf(wantTop, 0) && rng.Intn(2) == 0 {
				b = wantTop + []float64{-geom.Eps, 0, geom.Eps}[rng.Intn(3)]
			}
			for _, q := range []Query{
				NewQuery(ALL, slope, b, geom.GE), NewQuery(ALL, slope, b, geom.LE),
				NewQuery(EXIST, slope, b, geom.GE), NewQuery(EXIST, slope, b, geom.LE),
			} {
				v := wantBot
				if q.UsesTop() {
					v = wantTop
				}
				want := !ext.IsEmpty() && ((q.Op == geom.GE && b-geom.Eps <= v) || (q.Op == geom.LE && b+geom.Eps >= v))
				if got, err := q.Matches(tp); err != nil || got != want {
					t.Fatalf("%v on %v: Matches = %v, %v; Proposition 2.2 on the reference says %v", q, tp, got, err, want)
				}
			}
			if dim == 2 && inRange {
				d := geom.EnvelopeSlack(slope[0])
				if key := tp.TopEnv().Eval(slope[0]); !math.IsInf(key, 0) && !(math.Abs(key-wantTop) <= d) {
					t.Fatalf("%v at %v: TOP envelope %v, reference %v, apart by more than δ = %v", tp, slope, key, wantTop, d)
				}
				if key := tp.BotEnv().Eval(slope[0]); !math.IsInf(key, 0) && !(math.Abs(key-wantBot) <= d) {
					t.Fatalf("%v at %v: BOT envelope %v, reference %v, apart by more than δ = %v", tp, slope, key, wantBot, d)
				}
			}
		}
	}
	t.Logf("extensions: %v", shapes)
	for _, s := range []string{"empty", "bounded", "unbounded"} {
		if shapes[s] == 0 {
			t.Errorf("no %s extension generated", s)
		}
	}
}

package core

import (
	"math"
	"math/rand"
	"testing"

	"dualcdb/internal/constraint"
	"dualcdb/internal/geom"
)

// buildSlopesIndex builds a small index over explicit slopes/options so the
// strip geometry is known exactly, and returns its slope geometry.
func buildSlopesIndex(t *testing.T, opt Options) *slopeSet {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	rel := constraint.NewRelation(2)
	for i := 0; i < 40; i++ {
		if _, err := rel.Insert(randTuple(rng, false)); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := Build(rel, opt)
	if err != nil {
		t.Fatal(err)
	}
	return ix.geo.(*slopeSet)
}

// TestNearestSlopeTieBreak: a query slope exactly midway between two
// members of S must resolve deterministically to the lower slope (the
// strict < comparison keeps the first candidate examined, which is i-1).
func TestNearestSlopeTieBreak(t *testing.T) {
	ix := buildSlopesIndex(t, Options{Slopes: []float64{-1, 1}, Technique: T2})
	if i := ix.nearest(0); i != 0 { // equidistant from -1 and 1
		t.Fatalf("tie broke to index %d (slope %g), want 0 (lower slope)", i, ix.s[i])
	}
	// Off-tie slopes still pick the genuinely nearest member, and slopes
	// beyond S its ends.
	for a, want := range map[float64]int{0.25: 1, -0.25: 0, -7: 0, 7: 1} {
		if j := ix.nearest(a); j != want {
			t.Fatalf("nearest(%v) = %d, want %d", a, j, want)
		}
	}
	// Only a member itself is on its site; Eps away is an ordinary slope of
	// that site's strip.
	for _, c := range []struct {
		a      float64
		site   int
		onSite bool
	}{{-1, 0, true}, {1, 1, true}, {0, 0, false}, {1 + geom.Eps/2, 1, false}, {math.Nextafter(-1, 0), 0, false}} {
		if r, err := ix.route([]float64{c.a}, true); err != nil || r.site != c.site || r.onSite != c.onSite || !r.inCell {
			t.Fatalf("route(%v) = %+v, %v; want site %d, onSite %v, in its cell", c.a, r, err, c.site, c.onSite)
		}
	}
}

// TestStripBoundsOuterWidthDerived: interior strip edges sit midway between
// adjacent slopes; the outermost strips extend by half the largest gap in S,
// or by 1 when S has a single slope.
func TestStripBoundsOuterWidthDerived(t *testing.T) {
	for _, c := range []struct {
		slopes []float64
		outer  float64
		bounds [][2]float64
	}{
		{[]float64{-1, 1}, 1, [][2]float64{{-2, 0}, {0, 2}}},
		// Gaps 1.25, 0.75, 1.5: the largest, not the outermost, sets the width.
		{[]float64{-1.5, -0.25, 0.5, 2}, 0.75, [][2]float64{{-2.25, -0.875}, {-0.875, 0.125}, {0.125, 1.25}, {1.25, 2.75}}},
		// A single-slope set has no interior edges: both sides are outer.
		// (T1/T2 need two slopes, so build the restricted-only structure; the
		// strip geometry is technique-independent.)
		{[]float64{2}, 1, [][2]float64{{1, 3}}},
	} {
		tech := T2
		if len(c.slopes) == 1 {
			tech = RestrictedOnly
		}
		ix := buildSlopesIndex(t, Options{Slopes: c.slopes, Technique: tech})
		if ix.outer != c.outer {
			t.Fatalf("S = %v: outer half-width %g, want %g", c.slopes, ix.outer, c.outer)
		}
		for i, want := range c.bounds {
			if lo, hi := ix.stripBounds(i); lo != want[0] || hi != want[1] {
				t.Fatalf("S = %v: stripBounds(%d) = (%g, %g), want %v", c.slopes, i, lo, hi, want)
			}
		}
	}
}

// TestT2FallbackAtStripEdge: a T2 query inside an outer strip runs the
// handicap path; just past the edge no handicap applies and the nearest
// slope's tree is swept outside every strip. Both must still return the
// ground-truth answer.
func TestT2FallbackAtStripEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	rel := constraint.NewRelation(2)
	for i := 0; i < 120; i++ {
		if _, err := rel.Insert(randTuple(rng, false)); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := Build(rel, Options{Slopes: []float64{-1, 1}, Technique: T2})
	if err != nil {
		t.Fatal(err)
	}
	strips := ix.geo.(*slopeSet)
	lo, _ := strips.stripBounds(0)
	_, hi := strips.stripBounds(1)
	for _, tc := range []struct {
		slope float64
		path  string
	}{
		{hi - 0.1, "t2"},          // inside the outer strip of slope 1
		{hi + 0.1, "t2(outside)"}, // just past its edge
		{lo + 0.1, "t2"},          // inside the outer strip of slope -1
		{lo - 0.1, "t2(outside)"},
	} {
		q := constraint.Query2(constraint.EXIST, tc.slope, 2, geom.GE)
		res, err := ix.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Path != tc.path {
			t.Fatalf("slope %g: path %q, want %q", tc.slope, res.Stats.Path, tc.path)
		}
		want, err := q.Eval(rel)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(res.IDs, want) {
			t.Fatalf("slope %g: %v != ground truth %v", tc.slope, res.IDs, want)
		}
	}
}

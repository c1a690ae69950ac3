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

// TestStripBoundsOuterHalfWidth: interior strip edges sit midway between
// adjacent slopes; the outermost strips extend by exactly OuterHalfWidth.
func TestStripBoundsOuterHalfWidth(t *testing.T) {
	ix := buildSlopesIndex(t, Options{
		Slopes: []float64{-1, 1}, Technique: T2, OuterHalfWidth: 5,
	})
	lo, hi := ix.stripBounds(0)
	if lo != -6 || hi != 0 {
		t.Fatalf("stripBounds(0) = (%g, %g), want (-6, 0)", lo, hi)
	}
	lo, hi = ix.stripBounds(1)
	if lo != 0 || hi != 6 {
		t.Fatalf("stripBounds(1) = (%g, %g), want (0, 6)", lo, hi)
	}
	// A single-slope set has no interior edges: both sides are outer.
	// (T1/T2 need two slopes, so build the restricted-only structure; the
	// strip geometry is technique-independent.)
	ix1 := buildSlopesIndex(t, Options{
		Slopes: []float64{2}, Technique: RestrictedOnly, OuterHalfWidth: 3,
	})
	lo, hi = ix1.stripBounds(0)
	if lo != -1 || hi != 5 {
		t.Fatalf("stripBounds(0) single slope = (%g, %g), want (-1, 5)", lo, hi)
	}
}

// TestT2FallbackAtStripEdge: a T2 query inside the widened outer strip runs
// the handicap path; just past the edge no handicap applies and the whole
// tree is swept. Both must still return the ground-truth answer.
func TestT2FallbackAtStripEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	rel := constraint.NewRelation(2)
	for i := 0; i < 120; i++ {
		if _, err := rel.Insert(randTuple(rng, false)); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := Build(rel, Options{
		Slopes: []float64{-1, 1}, Technique: T2, OuterHalfWidth: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		slope float64
		path  string
	}{
		{5.9, "t2"},          // inside the widened outer strip of slope 1
		{6.1, "t2(outside)"}, // just past rightHi = 6
		{-5.9, "t2"},         // inside the outer strip of slope -1
		{-6.1, "t2(outside)"},
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

package core

import (
	"math"
	"math/rand"
	"testing"

	"dualcdb/internal/constraint"
	"dualcdb/internal/geom"
)

// The restricted line structure of footnote 6 is an index built with
// RestrictedOnly: QueryLine answers a slope of S from the site's two sweeps
// and refuses every other slope.

// TestLineIndexMatchesGroundTruth: at slopes of S the restricted structure
// must agree with the exhaustive interval test, refine no candidate, and
// agree with a T2 index's QueryLine over the same relation.
func TestLineIndexMatchesGroundTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(701))
	rel, ix := buildRandomIndex(t, rng, 250, Options{Slopes: EquiangularSlopes(3), Technique: T2}, true)
	li, err := Build(rel, Options{Slopes: ix.Slopes(), Technique: RestrictedOnly})
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < 80; qi++ {
		a := li.Slopes()[rng.Intn(3)]
		b := rng.Float64()*160 - 80
		want, err := EvalLine(a, b, rel)
		if err != nil {
			t.Fatal(err)
		}
		got, err := li.QueryLine(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(got.IDs, want) {
			t.Fatalf("line y=%vx+%v: restricted %v, want %v", a, b, got.IDs, want)
		}
		if st := got.Stats; st.Path != "line(restricted∩restricted)" || st.FalseHits != 0 {
			t.Fatalf("line y=%vx+%v at a slope of S: %+v; want the restricted path with no false hits", a, b, st)
		}
		viaT2, err := ix.QueryLine(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(got.IDs, viaT2.IDs) {
			t.Fatalf("restricted and T2 answers disagree: %v vs %v", got.IDs, viaT2.IDs)
		}
	}
}

// TestLineIndexRejectsOutOfSetSlopes: this is the restricted structure.
func TestLineIndexRejectsOutOfSetSlopes(t *testing.T) {
	rng := rand.New(rand.NewSource(702))
	rel, _ := buildRandomIndex(t, rng, 30, Options{Slopes: EquiangularSlopes(2), Technique: T2}, false)
	li, err := Build(rel, Options{Slopes: []float64{-1, 0, 1}, Technique: RestrictedOnly})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := li.QueryLine(0.37, 0); err == nil {
		t.Fatal("out-of-set slope must be rejected")
	}
	if _, err := Build(rel, Options{Technique: RestrictedOnly}); err == nil {
		t.Fatal("empty slope set must be rejected")
	}
}

// TestLineIndexRefusesSlopeWithinEps: a slope Eps/2 off a member of S is not
// the member. Half a million out in x that moves TOP^P by 2.5e-4 — the line
// below stabs the box at slope 1 and misses it at 1 + Eps/2 — so the only
// right answers are EvalLine's or a refusal, and the restricted structure
// refuses.
func TestLineIndexRefusesSlopeWithinEps(t *testing.T) {
	rel := constraint.NewRelation(2)
	box, err := constraint.ParseTuple("x >= 500000 && x <= 500001 && y >= 500000 && y <= 500001", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rel.Insert(box); err != nil {
		t.Fatal(err)
	}
	li, err := Build(rel, Options{Slopes: []float64{-1, 1}, Technique: RestrictedOnly})
	if err != nil {
		t.Fatal(err)
	}
	const b = 0.9999 // TOP^P is 1 at slope 1 and 0.99975 at 1 + Eps/2
	off := 1 + geom.Eps/2
	if at, _ := EvalLine(1, b, rel); len(at) != 1 {
		t.Fatalf("EvalLine at the member: %v, want the box", at)
	}
	if near, _ := EvalLine(off, b, rel); len(near) != 0 {
		t.Fatalf("EvalLine Eps/2 off the member: %v, want nothing", near)
	}
	if got, err := li.QueryLine(1, b); err != nil || len(got.IDs) != 1 {
		t.Fatalf("QueryLine at the member: %v, %v; want the box", got.IDs, err)
	}
	if got, err := li.QueryLine(off, b); err == nil {
		t.Fatalf("QueryLine Eps/2 off the member answered %v from the member's trees; want a refusal", got.IDs)
	}
	if _, err := li.QueryLine(math.Nextafter(1, 2), b); err == nil {
		t.Fatal("QueryLine one ulp off the member must be refused")
	}
}

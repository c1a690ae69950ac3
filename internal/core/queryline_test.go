package core

import (
	"math"
	"math/rand"
	"testing"

	"dualcdb/internal/constraint"
	"dualcdb/internal/geom"
	"dualcdb/internal/obs"
)

// TestQueryLineMatchesGroundTruth: line-stabbing selections against the
// exhaustive interval test b ∈ [BOT(a), TOP(a)], every fourth at a slope of
// S. The stab's false hits are the evaluated candidates of its two EXIST
// selections that are not in their answers.
func TestQueryLineMatchesGroundTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	// A one-slot ring with a 1 ns threshold holds the latest query's trace.
	o := obs.New(obs.Options{SlowThreshold: 1})
	for trial := 0; trial < 4; trial++ {
		rel, ix := buildRandomIndex(t, rng, 150, Options{
			Slopes: EquiangularSlopes(3), Technique: T2, Observe: o,
		}, true)
		restricted := 0
		for qi := 0; qi < 50; qi++ {
			a := math.Tan((rng.Float64() - 0.5) * (math.Pi - 0.2))
			if qi%4 == 0 {
				a = ix.Slopes()[rng.Intn(3)]
			}
			b := rng.Float64()*160 - 80
			want, err := EvalLine(a, b, rel)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ix.QueryLine(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if !sameIDs(got.IDs, want) {
				t.Fatalf("line y=%vx+%v: got %v, want %v", a, b, got.IDs, want)
			}
			evaluated := refineItems(o)
			if got.Stats.Path == "line(restricted∩restricted)" {
				restricted++
			}
			var answered, sure int
			for _, op := range []geom.Op{geom.GE, geom.LE} {
				half, err := ix.Query(constraint.Query2(constraint.EXIST, a, b, op))
				if err != nil {
					t.Fatal(err)
				}
				answered += half.Stats.Results
				sure += half.Stats.Sure
			}
			if st := got.Stats; st.Sure != sure || st.FalseHits != evaluated-(answered-sure) {
				t.Fatalf("line y=%vx+%v: %+v; its selections evaluated %d and answered %d, %d of them sure", a, b, st, evaluated, answered, sure)
			}
		}
		if restricted == 0 {
			t.Fatal("no stab ran on the restricted path")
		}
	}
}

// TestQueryLineGeometry: hand-checked configurations.
func TestQueryLineGeometry(t *testing.T) {
	rel := constraint.NewRelation(2)
	ix, err := New(rel, Options{Slopes: EquiangularSlopes(3), Technique: T2})
	if err != nil {
		t.Fatal(err)
	}
	below, _ := constraint.ParseTuple("x >= 0 && x <= 1 && y >= -5 && y <= -4", 2)
	crossed, _ := constraint.ParseTuple("x >= 0 && x <= 1 && y >= -1 && y <= 1", 2)
	above, _ := constraint.ParseTuple("x >= 0 && x <= 1 && y >= 4 && y <= 5", 2)
	if _, err := ix.Insert(below); err != nil {
		t.Fatal(err)
	}
	idC, _ := ix.Insert(crossed)
	if _, err := ix.Insert(above); err != nil {
		t.Fatal(err)
	}
	// The x-axis (y = 0) crosses only the middle box.
	got, err := ix.QueryLine(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.IDs) != 1 || got.IDs[0] != idC {
		t.Fatalf("line y=0 crosses %v", got.IDs)
	}
	// A line through all three (steep): x = ... use slope 40: y = 40x − 20
	// passes y∈[−20,20] over x∈[0,1], crossing the middle box and, at the
	// edges, none of the others? At x=0.4, y=−4: crosses 'below' too.
	got, err = ix.QueryLine(40, -20)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.IDs) != 3 {
		t.Fatalf("steep line should cross all boxes, got %v", got.IDs)
	}

	// A slope Eps/2 or one ulp off a member of S is not the member. Half a
	// million out in x that moves TOP^P by 2.5e-4 — the line below stabs the
	// box at slope 1 and misses it at 1 + Eps/2 — so the answer must be
	// EvalLine's at the slope asked, under T2 and under T1.
	rel = constraint.NewRelation(2)
	box, err := constraint.ParseTuple("x >= 500000 && x <= 500001 && y >= 500000 && y <= 500001", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rel.Insert(box); err != nil {
		t.Fatal(err)
	}
	const b = 0.9999 // TOP^P is 1 at slope 1 and 0.99975 at 1 + Eps/2
	if at, _ := EvalLine(1, b, rel); len(at) != 1 {
		t.Fatalf("EvalLine at the member: %v, want the box", at)
	}
	if near, _ := EvalLine(1+geom.Eps/2, b, rel); len(near) != 0 {
		t.Fatalf("EvalLine Eps/2 off the member: %v, want nothing", near)
	}
	for _, tc := range []struct {
		tech Technique
		off  string // the path of a slope off the members
	}{{T2, "line(t2∩t2)"}, {T1, "line(t1∩t1)"}} {
		ix, err := Build(rel, Options{Slopes: []float64{-1, 1}, Technique: tc.tech})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []struct {
			a    float64
			path string
		}{
			{1, "line(restricted∩restricted)"},
			{1 + geom.Eps/2, tc.off},
			{math.Nextafter(1, 2), tc.off},
			{-1, "line(restricted∩restricted)"},
		} {
			want, err := EvalLine(p.a, b, rel)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ix.QueryLine(p.a, b)
			if err != nil {
				t.Fatal(err)
			}
			if !sameIDs(got.IDs, want) || got.Stats.Path != p.path {
				t.Fatalf("%v, line y=%vx+%v: got %v on %s, want %v on %s", tc.tech, p.a, b, got.IDs, got.Stats.Path, want, p.path)
			}
		}
	}
}

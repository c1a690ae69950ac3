package core

import (
	"math/rand"
	"testing"

	"dualcdb/internal/constraint"
	"dualcdb/internal/geom"
	"dualcdb/internal/pagestore"
)

// TestVerticalMatchesGroundTruth: vertical selections, on the index and on
// a snapshot, against the exhaustive evaluation; both take the scan path.
func TestVerticalMatchesGroundTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(901))
	rel := constraint.NewRelation(2)
	for i := 0; i < 200; i++ {
		if _, err := rel.Insert(randTuple(rng, true)); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := Build(rel, Options{Slopes: EquiangularSlopes(3), Technique: T2})
	if err != nil {
		t.Fatal(err)
	}
	snap := ix.Snapshot()
	defer snap.Release()
	for qi := 0; qi < 60; qi++ {
		kind := constraint.EXIST
		if rng.Intn(2) == 0 {
			kind = constraint.ALL
		}
		op := geom.GE
		if rng.Intn(2) == 0 {
			op = geom.LE
		}
		c := rng.Float64()*160 - 80
		want, err := EvalVertical(kind, op, c, rel)
		if err != nil {
			t.Fatal(err)
		}
		for name, q := range map[string]func(constraint.QueryKind, geom.Op, float64) (Result, error){
			"index": ix.QueryVertical, "snapshot": snap.QueryVertical,
		} {
			got, err := q(kind, op, c)
			if err != nil {
				t.Fatal(err)
			}
			if !sameIDs(got.IDs, want) {
				t.Fatalf("%s %v(x %v %v): got %v, want %v", name, kind, op, c, got.IDs, want)
			}
			if got.Stats.Path != "scan" || got.Stats.Candidates != rel.Len() {
				t.Fatalf("%s: path %q over %d candidates, want scan over %d", name, got.Stats.Path, got.Stats.Candidates, rel.Len())
			}
		}
	}
}

// TestVerticalMaintenance: vertical selections follow inserts and deletes.
func TestVerticalMaintenance(t *testing.T) {
	rng := rand.New(rand.NewSource(902))
	rel := constraint.NewRelation(2)
	ix, err := New(rel, Options{Slopes: EquiangularSlopes(2), Technique: T2})
	if err != nil {
		t.Fatal(err)
	}
	var live []constraint.TupleID
	for step := 0; step < 200; step++ {
		if len(live) == 0 || rng.Intn(3) > 0 {
			id, err := ix.Insert(randTuple(rng, true))
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
		} else {
			i := rng.Intn(len(live))
			if err := ix.Delete(live[i]); err != nil {
				t.Fatal(err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if step%25 == 24 {
			c := rng.Float64()*100 - 50
			want, _ := EvalVertical(constraint.EXIST, geom.GE, c, rel)
			got, err := ix.QueryVertical(constraint.EXIST, geom.GE, c)
			if err != nil {
				t.Fatal(err)
			}
			if !sameIDs(got.IDs, want) {
				t.Fatalf("step %d: got %v, want %v", step, got.IDs, want)
			}
		}
	}
}

// TestQueryTupleRefinesVerticalConstraints: a box query runs its two
// horizontal constraints on the trees and leaves its two vertical ones to
// refinement, and answers exactly.
func TestQueryTupleRefinesVerticalConstraints(t *testing.T) {
	rng := rand.New(rand.NewSource(903))
	rel := constraint.NewRelation(2)
	for i := 0; i < 150; i++ {
		if _, err := rel.Insert(randTuple(rng, false)); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := Build(rel, Options{Slopes: EquiangularSlopes(3), Technique: T2})
	if err != nil {
		t.Fatal(err)
	}
	window, _ := constraint.ParseTuple("x >= -20 && x <= 20 && y >= -20 && y <= 20", 2)
	for _, kind := range []constraint.QueryKind{constraint.ALL, constraint.EXIST} {
		want, err := EvalTuple(kind, window, rel)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ix.QueryTuple(kind, window)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(got.IDs, want) {
			t.Fatalf("%v(window): got %v, want %v", kind, got.IDs, want)
		}
		if got.Stats.ConstraintsIndexed != 2 || got.Stats.ConstraintsSkipped != 2 {
			t.Fatalf("%v: constraints indexed=%d skipped=%d, want 2/2",
				kind, got.Stats.ConstraintsIndexed, got.Stats.ConstraintsSkipped)
		}
	}
}

// TestVerticalPersistence: a reopened index answers vertical selections as
// the saved one did.
func TestVerticalPersistence(t *testing.T) {
	rng := rand.New(rand.NewSource(904))
	store := pagestore.NewMemStore(1024)
	rel := constraint.NewRelation(2)
	for i := 0; i < 120; i++ {
		_, _ = rel.Insert(randTuple(rng, true))
	}
	ix, err := Build(rel, Options{
		Slopes: EquiangularSlopes(2), Technique: T2, Store: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(); err != nil {
		t.Fatal(err)
	}
	_, ix2, err := Open(pagestore.NewPool(store, 512))
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < 30; qi++ {
		c := rng.Float64()*100 - 50
		want, err := ix.QueryVertical(constraint.ALL, geom.LE, c)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ix2.QueryVertical(constraint.ALL, geom.LE, c)
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats.Path != "scan" {
			t.Fatalf("reopened index: path %q, want scan", got.Stats.Path)
		}
		if !sameIDs(got.IDs, want.IDs) {
			t.Fatalf("c=%v: %v vs %v", c, got.IDs, want.IDs)
		}
	}
}

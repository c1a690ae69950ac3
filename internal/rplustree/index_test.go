package rplustree

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"dualcdb/internal/constraint"
	"dualcdb/internal/geom"
)

func randBoundedTuple(rng *rand.Rand, maxRadius float64) *constraint.Tuple {
	cx, cy := rng.Float64()*100-50, rng.Float64()*100-50
	r := rng.Float64()*maxRadius + 0.3
	m := 3 + rng.Intn(4)
	hs := make([]geom.HalfSpace, 0, m)
	for i := 0; i < m; i++ {
		ang := (float64(i) + rng.Float64()*0.3 + 0.35) * 2 * math.Pi / float64(m)
		nx, ny := math.Cos(ang), math.Sin(ang)
		hs = append(hs, geom.HalfSpace{A: []float64{nx, ny}, C: -(nx*cx + ny*cy + r), Op: geom.LE})
	}
	t, err := constraint.NewTuple(2, hs)
	if err != nil {
		panic(err)
	}
	return t
}

func randHalfPlaneQuery(rng *rand.Rand) constraint.Query {
	kind := constraint.EXIST
	if rng.Intn(2) == 0 {
		kind = constraint.ALL
	}
	op := geom.GE
	if rng.Intn(2) == 0 {
		op = geom.LE
	}
	ang := (rng.Float64() - 0.5) * (math.Pi - 0.2)
	return constraint.Query2(kind, math.Tan(ang), rng.Float64()*160-80, op)
}

func TestIndexMatchesGroundTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	rel := constraint.NewRelation(2)
	for i := 0; i < 300; i++ {
		if _, err := rel.Insert(randBoundedTuple(rng, 8)); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := Build(rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Skipped != 0 {
		t.Fatalf("skipped %d bounded tuples", ix.Skipped)
	}
	for qi := 0; qi < 80; qi++ {
		q := randHalfPlaneQuery(rng)
		want, err := q.Eval(rel)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ix.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.IDs) != len(want) {
			t.Fatalf("%v: got %v, want %v", q, got.IDs, want)
		}
		for i := range want {
			if got.IDs[i] != want[i] {
				t.Fatalf("%v: got %v, want %v", q, got.IDs, want)
			}
		}
	}
}

// TestIndexZeroSlopeMatchesGroundTruth queries at slope exactly 0, where
// the half-plane's x coefficient is 0: evalCorner must read 0·(±Inf) as
// 0, not NaN, or a node whose region is unbounded in x is pruned with its
// whole subtree.
func TestIndexZeroSlopeMatchesGroundTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	rel := constraint.NewRelation(2)
	for i := 0; i < 3000; i++ {
		if _, err := rel.Insert(randBoundedTuple(rng, 8)); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := Build(rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []constraint.QueryKind{constraint.ALL, constraint.EXIST} {
		for _, op := range []geom.Op{geom.GE, geom.LE} {
			for _, b := range []float64{-40, 0, 40} {
				q := constraint.Query2(kind, 0, b, op)
				want, err := q.Eval(rel)
				if err != nil {
					t.Fatal(err)
				}
				got, err := ix.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got.IDs, want) {
					t.Errorf("%v: got %d ids, want %d", q, len(got.IDs), len(want))
				}
			}
		}
	}
}

func TestIndexSkipsUnboundedAndEmpty(t *testing.T) {
	rel := constraint.NewRelation(2)
	unb, _ := constraint.ParseTuple("y >= 0", 2)
	emp, _ := constraint.ParseTuple("x >= 1 && x <= 0", 2)
	box, _ := constraint.ParseTuple("x >= 0 && x <= 1 && y >= 0 && y <= 1", 2)
	_, _ = rel.Insert(unb)
	_, _ = rel.Insert(emp)
	boxID, _ := rel.Insert(box)
	ix, err := Build(rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Skipped != 2 {
		t.Fatalf("Skipped = %d, want 2 (the R⁺-tree stores bounded objects only)", ix.Skipped)
	}
	got, err := ix.Query(constraint.Query2(constraint.EXIST, 0, 0.5, geom.GE))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.IDs) != 1 || got.IDs[0] != boxID {
		t.Fatalf("got %v", got.IDs)
	}
}

func TestALLNeverExceedsEXIST(t *testing.T) {
	// ALL(q) ⊆ EXIST(q) for the same half-plane: the R⁺-tree executes both
	// via the same traversal, so candidates agree and ALL pays the same I/O
	// with more false hits — the effect Figure 8(b)/9(b) quantify.
	rng := rand.New(rand.NewSource(23))
	rel := constraint.NewRelation(2)
	for i := 0; i < 300; i++ {
		_, _ = rel.Insert(randBoundedTuple(rng, 10))
	}
	ix, err := Build(rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < 40; qi++ {
		q := randHalfPlaneQuery(rng)
		qAll, qExist := q, q
		qAll.Kind = constraint.ALL
		qExist.Kind = constraint.EXIST
		ra, err := ix.Query(qAll)
		if err != nil {
			t.Fatal(err)
		}
		re, err := ix.Query(qExist)
		if err != nil {
			t.Fatal(err)
		}
		if ra.Stats.Candidates != re.Stats.Candidates {
			t.Fatalf("ALL and EXIST traversals must see the same candidates: %d vs %d",
				ra.Stats.Candidates, re.Stats.Candidates)
		}
		if len(ra.IDs) > len(re.IDs) {
			t.Fatalf("ALL returned more than EXIST: %d vs %d", len(ra.IDs), len(re.IDs))
		}
		if ra.Stats.FalseHits < re.Stats.FalseHits {
			t.Fatalf("ALL must have at least as many false hits: %d vs %d",
				ra.Stats.FalseHits, re.Stats.FalseHits)
		}
	}
}

func TestIndexRejectsWrongDimensions(t *testing.T) {
	rel3 := constraint.NewRelation(3)
	if _, err := Build(rel3, Options{}); err == nil {
		t.Fatal("3-D relation must be rejected")
	}
	rel := constraint.NewRelation(2)
	ix, err := Build(rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := constraint.NewQuery(constraint.EXIST, []float64{0, 0}, 0, geom.GE)
	if _, err := ix.Query(q); err == nil {
		t.Fatal("3-D query must be rejected")
	}
}

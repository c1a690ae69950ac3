package core

import (
	"math"
	"math/rand"
	"testing"

	"dualcdb/internal/constraint"
	"dualcdb/internal/geom"
)

// randTuple3 builds a random bounded 3-D polytope: a box around a random
// center cut by a few random tangent planes; with unboundedOK, sometimes an
// unbounded corner cone instead.
func randTuple3(rng *rand.Rand, unboundedOK bool) *constraint.Tuple {
	c := geom.Point{rng.Float64()*40 - 20, rng.Float64()*40 - 20, rng.Float64()*40 - 20}
	if unboundedOK && rng.Intn(6) == 0 {
		// An unbounded corner: x ≥ cx ∧ y ≥ cy ∧ z ≥ cz (orientation varies).
		hs := make([]geom.HalfSpace, 3)
		for i := 0; i < 3; i++ {
			a := make([]float64, 3)
			op := geom.GE
			if rng.Intn(2) == 0 {
				op = geom.LE
			}
			a[i] = 1
			hs[i] = geom.HalfSpace{A: a, C: -c[i], Op: op}
		}
		t, err := constraint.NewTuple(3, hs)
		if err != nil {
			panic(err)
		}
		return t
	}
	half := rng.Float64()*4 + 0.5
	var hs []geom.HalfSpace
	for i := 0; i < 3; i++ {
		lo := make([]float64, 3)
		lo[i] = 1
		hi := append([]float64(nil), lo...)
		hs = append(hs,
			geom.HalfSpace{A: lo, C: -(c[i] - half), Op: geom.GE},
			geom.HalfSpace{A: hi, C: -(c[i] + half), Op: geom.LE},
		)
	}
	// A couple of random tangent cuts for general position.
	for extra := rng.Intn(3); extra > 0; extra-- {
		n := geom.Point{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}.Normalize()
		if n.IsZero() {
			continue
		}
		// Keep the center inside with margin r < half.
		r := rng.Float64() * half
		hs = append(hs, geom.HalfSpace{
			A: []float64{n[0], n[1], n[2]}, C: -(n.Dot(c) + r), Op: geom.LE,
		})
	}
	t, err := constraint.NewTuple(3, hs)
	if err != nil {
		panic(err)
	}
	return t
}

func randQuery3(rng *rand.Rand) constraint.Query {
	kind := constraint.EXIST
	if rng.Intn(2) == 0 {
		kind = constraint.ALL
	}
	op := geom.GE
	if rng.Intn(2) == 0 {
		op = geom.LE
	}
	slope := []float64{rng.NormFloat64(), rng.NormFloat64()}
	b := rng.Float64()*80 - 40
	return constraint.NewQuery(kind, slope, b, op)
}

func build3DIndex(t *testing.T, rng *rand.Rand, n int, unboundedOK bool) (*constraint.Relation, *IndexD) {
	t.Helper()
	rel := constraint.NewRelation(3)
	for i := 0; i < n; i++ {
		if _, err := rel.Insert(randTuple3(rng, unboundedOK)); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := BuildD(rel, OptionsD{Sites: LatticeSites(2, 3, 1.5)})
	if err != nil {
		t.Fatal(err)
	}
	return rel, ix
}

// TestIndexDMatchesGroundTruth3D: the central d-dimensional correctness
// test — all execution paths against the exhaustive Proposition 2.2 scan.
func TestIndexDMatchesGroundTruth3D(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	for trial := 0; trial < 4; trial++ {
		rel, ix := build3DIndex(t, rng, 120, true)
		for qi := 0; qi < 50; qi++ {
			q := randQuery3(rng)
			want, err := q.Eval(rel)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ix.Query(q)
			if err != nil {
				t.Fatalf("%v: %v", q, err)
			}
			if !sameIDs(got.IDs, want) {
				t.Fatalf("%v: got %v, want %v (stats %+v)", q, got.IDs, want, got.Stats)
			}
		}
	}
}

// TestIndexDRestrictedPath: slope points drawn exactly from S must run the
// optimal single-sweep structure.
func TestIndexDRestrictedPath(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	rel, ix := build3DIndex(t, rng, 150, true)
	sites := ix.Sites()
	for qi := 0; qi < 40; qi++ {
		q := randQuery3(rng)
		s := sites[rng.Intn(len(sites))]
		q.Slope = []float64{s[0], s[1]}
		want, err := q.Eval(rel)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ix.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats.Path != "restricted" {
			t.Fatalf("path = %q for in-set slope point", got.Stats.Path)
		}
		if !sameIDs(got.IDs, want) {
			t.Fatalf("%v: got %v, want %v", q, got.IDs, want)
		}
	}
}

// TestIndexDT2PathInsideCells: slopes inside the clamped Voronoi cells use
// the handicap technique, not the scan.
func TestIndexDT2PathInsideCells(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	_, ix := build3DIndex(t, rng, 100, false)
	for qi := 0; qi < 40; qi++ {
		q := randQuery3(rng)
		q.Slope = []float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1} // inside the box
		got, err := ix.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats.Path != "t2" && got.Stats.Path != "restricted" {
			t.Fatalf("slope %v: path %q", q.Slope, got.Stats.Path)
		}
		if got.Stats.Duplicates != 0 {
			t.Fatalf("T2 in E^3 produced duplicates: %+v", got.Stats)
		}
	}
}

// TestIndexDScanFallback: slope points outside every clamped cell fall
// back to the exhaustive scan and stay correct.
func TestIndexDScanFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(304))
	rel, ix := build3DIndex(t, rng, 80, false)
	q := constraint.NewQuery(constraint.EXIST, []float64{50, -50}, 0, geom.GE)
	got, err := ix.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Path != "scan" {
		t.Fatalf("path = %q for far-out slope", got.Stats.Path)
	}
	want, _ := q.Eval(rel)
	if !sameIDs(got.IDs, want) {
		t.Fatalf("scan fallback wrong: %v vs %v", got.IDs, want)
	}
}

// TestIndexDInsertDelete: incremental maintenance in E^3, with a handicap
// rebuild every 32 deletions.
func TestIndexDInsertDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(305))
	rel := constraint.NewRelation(3)
	ix, err := NewD(rel, OptionsD{Sites: LatticeSites(2, 2, 1)})
	if err != nil {
		t.Fatal(err)
	}
	var live []constraint.TupleID
	deletes := 0
	for step := 0; step < 200; step++ {
		if len(live) == 0 || rng.Intn(3) > 0 {
			id, err := ix.Insert(randTuple3(rng, true))
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
			if deletes++; deletes%32 == 0 {
				if err := ix.RebuildHandicaps(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if step%25 == 24 {
			q := randQuery3(rng)
			want, err := q.Eval(rel)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ix.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if !sameIDs(got.IDs, want) {
				t.Fatalf("step %d %v: got %v, want %v", step, q, got.IDs, want)
			}
		}
	}
}

// TestIndexDValidation exercises input checking.
func TestIndexDValidation(t *testing.T) {
	rel := constraint.NewRelation(3)
	if _, err := NewD(rel, OptionsD{}); err == nil {
		t.Error("empty site set must be rejected")
	}
	if _, err := NewD(rel, OptionsD{Sites: []geom.Point{{0}}}); err == nil {
		t.Error("wrong site dimension must be rejected")
	}
	if _, err := NewD(rel, OptionsD{Sites: []geom.Point{{0, 0}, {0, 0}}}); err == nil {
		t.Error("duplicate sites must be rejected")
	}
	ix, err := NewD(rel, OptionsD{Sites: LatticeSites(2, 2, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Query(constraint.Query2(constraint.EXIST, 0, 0, geom.GE)); err == nil {
		t.Error("2-D query on a 3-D index must be rejected")
	}
	q := constraint.NewQuery(constraint.EXIST, []float64{math.NaN(), 0}, 0, geom.GE)
	if _, err := ix.Query(q); err == nil {
		t.Error("NaN slope must be rejected")
	}
	q = constraint.NewQuery(constraint.EXIST, []float64{0.2, 0}, math.NaN(), geom.GE)
	if _, err := ix.Query(q); err == nil {
		t.Error("NaN intercept must be rejected")
	}
	if _, err := ix.QueryBatch([]constraint.Query{q}, BatchOptions{}); err == nil {
		t.Error("NaN intercept must be rejected by QueryBatch")
	}
	t2, _ := constraint.ParseTuple("x >= 0", 2)
	if _, err := ix.Insert(t2); err == nil {
		t.Error("dimension-mismatched tuple must be rejected")
	}
}

// TestLatticeSites checks the site-grid helper.
func TestLatticeSites(t *testing.T) {
	s := LatticeSites(2, 3, 1.5)
	if len(s) != 9 {
		t.Fatalf("3×3 lattice has %d sites", len(s))
	}
	for _, p := range s {
		if p.Dim() != 2 || math.Abs(p[0]) > 1.5+1e-9 || math.Abs(p[1]) > 1.5+1e-9 {
			t.Fatalf("bad site %v", p)
		}
	}
	if got := LatticeSites(1, 1, 2); len(got) != 1 || got[0][0] != 0 {
		t.Fatalf("1×1 lattice = %v", got)
	}
	if LatticeSites(0, 2, 1) != nil || LatticeSites(2, 0, 1) != nil {
		t.Fatal("degenerate lattices must be nil")
	}
}

// TestIndexDSpaceLinearInSites: Theorem 3.1's O(k·n) space in E^3.
func TestIndexDSpaceLinearInSites(t *testing.T) {
	rng := rand.New(rand.NewSource(306))
	rel := constraint.NewRelation(3)
	for i := 0; i < 300; i++ {
		if _, err := rel.Insert(randTuple3(rng, false)); err != nil {
			t.Fatal(err)
		}
	}
	ix4, err := BuildD(rel, OptionsD{Sites: LatticeSites(2, 2, 1)})
	if err != nil {
		t.Fatal(err)
	}
	ix9, err := BuildD(rel, OptionsD{Sites: LatticeSites(2, 3, 1)})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(ix9.Pages()) / float64(ix4.Pages())
	if ratio < 9.0/4*0.8 || ratio > 9.0/4*1.2 {
		t.Fatalf("space ratio %v, want ≈ 9/4", ratio)
	}
}

package core

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dualcdb/internal/btree"
	"dualcdb/internal/constraint"
	"dualcdb/internal/geom"
)

// randTuple builds a random convex polygon tuple from 3–6 tangent
// half-planes of a circle (bounded), or an unbounded tuple from 1–2
// half-planes when unboundedOK and the coin flip says so.
func randTuple(rng *rand.Rand, unboundedOK bool) *constraint.Tuple {
	if unboundedOK && rng.Intn(5) == 0 {
		m := 1 + rng.Intn(2)
		hs := make([]geom.HalfSpace, 0, m)
		for i := 0; i < m; i++ {
			ang := rng.Float64() * 2 * math.Pi
			nx, ny := math.Cos(ang), math.Sin(ang)
			c := rng.Float64()*40 - 20
			hs = append(hs, geom.HalfSpace{A: []float64{nx, ny}, C: c, Op: geom.LE})
		}
		t, err := constraint.NewTuple(2, hs)
		if err != nil {
			panic(err)
		}
		return t
	}
	cx, cy := rng.Float64()*100-50, rng.Float64()*100-50
	r := rng.Float64()*8 + 0.3
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

func buildRandomIndex(t *testing.T, rng *rand.Rand, n int, opt Options, unboundedOK bool) (*constraint.Relation, *Index) {
	t.Helper()
	rel := constraint.NewRelation(2)
	for i := 0; i < n; i++ {
		if _, err := rel.Insert(randTuple(rng, unboundedOK)); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := Build(rel, opt)
	if err != nil {
		t.Fatal(err)
	}
	return rel, ix
}

func randQuery(rng *rand.Rand) constraint.Query {
	kind := constraint.EXIST
	if rng.Intn(2) == 0 {
		kind = constraint.ALL
	}
	op := geom.GE
	if rng.Intn(2) == 0 {
		op = geom.LE
	}
	// Slopes as tangents of uniform angles (the paper's distribution),
	// clamped to avoid near-vertical extremes.
	ang := (rng.Float64() - 0.5) * (math.Pi - 0.2)
	a := math.Tan(ang)
	b := rng.Float64()*160 - 80
	return constraint.Query2(kind, a, b, op)
}

func sameIDs(a, b []constraint.TupleID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestIndexMatchesGroundTruth is the central correctness test: on random
// relations (with unbounded tuples) and random queries, every technique
// must return exactly the tuples the exhaustive Proposition 2.2 scan
// returns.
func TestIndexMatchesGroundTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, tech := range []Technique{T1, T2} {
		for trial := 0; trial < 6; trial++ {
			opt := Options{
				Slopes:    EquiangularSlopes(2 + rng.Intn(4)),
				Technique: tech,
			}
			rel, ix := buildRandomIndex(t, rng, 150, opt, true)
			for qi := 0; qi < 60; qi++ {
				q := randQuery(rng)
				want, err := q.Eval(rel)
				if err != nil {
					t.Fatal(err)
				}
				got, err := ix.Query(q)
				if err != nil {
					t.Fatalf("%v [%v]: %v", q, tech, err)
				}
				if !sameIDs(got.IDs, want) {
					t.Fatalf("%v [%v, k=%d]: got %v, want %v (stats %+v)",
						q, tech, len(opt.Slopes), got.IDs, want, got.Stats)
				}
			}
		}
	}
}

// TestNewRefusesTuples: an index from New or NewD covers only what is
// inserted through it, so over a relation that already holds tuples each
// fails, naming the constructor that indexes them, instead of answering
// without those tuples; a relation with none live is accepted, and the index
// answers as the scan after inserts through it.
func TestNewRefusesTuples(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	rel2, rel3 := constraint.NewRelation(2), constraint.NewRelation(3)
	for range 20 {
		if _, err := rel2.Insert(randTuple(rng, false)); err != nil {
			t.Fatal(err)
		}
		if _, err := rel3.Insert(randTuple3(rng, false)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := New(rel2, Options{Slopes: EquiangularSlopes(3)}); err == nil || !strings.Contains(err.Error(), "use Build") {
		t.Errorf("New over 20 tuples: err %v, want a refusal naming Build", err)
	}
	if _, err := NewD(rel3, OptionsD{Sites: LatticeSites(2, 2, 1)}); err == nil || !strings.Contains(err.Error(), "use BuildD") {
		t.Errorf("NewD over 20 tuples: err %v, want a refusal naming BuildD", err)
	}
	if _, err := Build(rel2, Options{Slopes: EquiangularSlopes(3)}); err != nil {
		t.Errorf("Build over the relation New refused: %v", err)
	}

	emptied := constraint.NewRelation(2)
	id, err := emptied.Insert(randTuple(rng, false))
	if err != nil {
		t.Fatal(err)
	}
	if err := emptied.Delete(id); err != nil {
		t.Fatal(err)
	}
	ix, err := New(emptied, Options{Slopes: EquiangularSlopes(3)})
	if err != nil {
		t.Fatalf("New over a relation with no live tuple: %v", err)
	}
	for range 20 {
		if _, err := ix.Insert(randTuple(rng, false)); err != nil {
			t.Fatal(err)
		}
	}
	for range 20 {
		q := randQuery(rng)
		want, err := q.Eval(emptied)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := ix.Query(q); err != nil || !sameIDs(got.IDs, want) {
			t.Fatalf("%v after inserts: got %v (%v), want %v", q, got.IDs, err, want)
		}
	}
}

// TestRestrictedPathExact: query slopes drawn from S run the Section 3
// structure and must match ground truth with zero duplicates.
func TestRestrictedPathExact(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	opt := Options{Slopes: EquiangularSlopes(4), Technique: T2}
	rel, ix := buildRandomIndex(t, rng, 200, opt, true)
	for qi := 0; qi < 80; qi++ {
		q := randQuery(rng)
		q.Slope[0] = ix.Slopes()[rng.Intn(4)] // force an S slope
		want, err := q.Eval(rel)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ix.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats.Path != "restricted" {
			t.Fatalf("path = %q for in-set slope", got.Stats.Path)
		}
		if got.Stats.Duplicates != 0 {
			t.Fatalf("restricted query produced duplicates: %+v", got.Stats)
		}
		if !sameIDs(got.IDs, want) {
			t.Fatalf("%v: got %v, want %v", q, got.IDs, want)
		}
	}
}

// TestT2NeverDuplicates: the defining advantage of T2 over T1
// (Section 4.2) — no tuple reference is retrieved twice.
func TestT2NeverDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	opt := Options{Slopes: EquiangularSlopes(3), Technique: T2}
	_, ix := buildRandomIndex(t, rng, 300, opt, true)
	paths := map[string]int{}
	for qi := 0; qi < 100; qi++ {
		q := randQuery(rng)
		got, err := ix.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		paths[got.Stats.Path]++
		if got.Stats.Path == "t2" || got.Stats.Path == "t2(outside)" || got.Stats.Path == "restricted" {
			if got.Stats.Duplicates != 0 {
				t.Fatalf("%v [%s]: produced %d duplicates", q, got.Stats.Path, got.Stats.Duplicates)
			}
			// Candidate multiset must be duplicate-free too: candidates =
			// decided + false hits + evaluated results with no double counting.
			if st := got.Stats; st.Candidates != st.Decided+st.FalseHits+st.Results-st.Sure {
				t.Fatalf("%v: candidate accounting broken: %+v", q, got.Stats)
			}
		}
		// One tree, at most swept whole, retrieves each tuple at most once.
		if got.Stats.Path == "t2(outside)" && got.Stats.Candidates > ix.Len() {
			t.Fatalf("%v: %d candidates from a tree of %d", q, got.Stats.Candidates, ix.Len())
		}
	}
	if paths["t2"] == 0 || paths["t2(outside)"] == 0 || paths["t1"] != 0 {
		t.Fatalf("paths taken: %v; want t2 and t2(outside), never T1", paths)
	}
}

// TestT1DuplicatesHappen documents the T1 weakness the paper motivates T2
// with: across many random queries some duplicates must appear.
func TestT1DuplicatesHappen(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	opt := Options{Slopes: EquiangularSlopes(3), Technique: T1}
	_, ix := buildRandomIndex(t, rng, 300, opt, false)
	dups := 0
	for qi := 0; qi < 100; qi++ {
		q := randQuery(rng)
		got, err := ix.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		dups += got.Stats.Duplicates
	}
	if dups == 0 {
		t.Fatal("expected T1 to produce duplicate retrievals on random workloads")
	}
}

// TestInsertDeleteMaintainsCorrectness exercises incremental maintenance:
// interleave inserts and deletes, and a handicap rebuild every 64 deletions,
// querying against ground truth throughout.
func TestInsertDeleteMaintainsCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	rel := constraint.NewRelation(2)
	opt := Options{Slopes: EquiangularSlopes(3), Technique: T2}
	ix, err := New(rel, opt)
	if err != nil {
		t.Fatal(err)
	}
	var live []constraint.TupleID
	deletes := 0
	for step := 0; step < 400; step++ {
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
			if deletes++; deletes%64 == 0 {
				if err := ix.RebuildHandicaps(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if step%20 == 19 {
			q := randQuery(rng)
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

// TestUnsatisfiableTuplesNotIndexed: empty extensions are kept in the
// relation but never enter the trees and never match.
func TestUnsatisfiableTuplesNotIndexed(t *testing.T) {
	rel := constraint.NewRelation(2)
	ix, err := New(rel, Options{Slopes: EquiangularSlopes(2), Technique: T2})
	if err != nil {
		t.Fatal(err)
	}
	bad, _ := constraint.ParseTuple("x >= 1 && x <= 0", 2)
	id, err := ix.Insert(bad)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 0 {
		t.Fatalf("indexed %d tuples, want 0", ix.Len())
	}
	good, _ := constraint.ParseTuple("x >= 0 && x <= 1 && y >= 0 && y <= 1", 2)
	if _, err := ix.Insert(good); err != nil {
		t.Fatal(err)
	}
	got, err := ix.Query(constraint.Query2(constraint.EXIST, 0.5, -100, geom.GE))
	if err != nil {
		t.Fatal(err)
	}
	for _, rid := range got.IDs {
		if rid == id {
			t.Fatal("unsatisfiable tuple returned by a query")
		}
	}
	// Deleting the unindexed tuple must work and not disturb the index.
	if err := ix.Delete(id); err != nil {
		t.Fatal(err)
	}
}

func TestRestrictedOnlyRejectsOtherSlopes(t *testing.T) {
	rel := constraint.NewRelation(2)
	ix, err := New(rel, Options{Slopes: []float64{0}, Technique: RestrictedOnly})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Query(constraint.Query2(constraint.EXIST, 0.5, 0, geom.GE)); err == nil {
		t.Fatal("restricted-only index must reject out-of-set slopes")
	}
	if _, err := ix.Query(constraint.Query2(constraint.EXIST, 0, 0, geom.GE)); err != nil {
		t.Fatalf("in-set slope rejected: %v", err)
	}
}

func TestOptionsValidation(t *testing.T) {
	rel := constraint.NewRelation(2)
	if _, err := New(rel, Options{}); err == nil {
		t.Error("empty slope set must be rejected")
	}
	if _, err := New(rel, Options{Slopes: []float64{1, 1}}); err == nil {
		t.Error("duplicate slopes must be rejected")
	}
	if _, err := New(rel, Options{Slopes: []float64{0, geom.Eps / 2, 1}}); err == nil {
		t.Error("slopes closer than the tolerance must be rejected")
	}
	if _, err := New(rel, Options{Slopes: []float64{0, 2 * geom.Eps}}); err != nil {
		t.Errorf("slopes separated by more than the tolerance rejected: %v", err)
	}
	if _, err := New(rel, Options{Slopes: []float64{1}, Technique: T2}); err == nil {
		t.Error("T2 with a single slope must be rejected")
	}
	if _, err := New(rel, Options{Slopes: []float64{math.Inf(1), 0}}); err == nil {
		t.Error("infinite slopes must be rejected")
	}
	rel3 := constraint.NewRelation(3)
	if _, err := New(rel3, Options{Slopes: []float64{0, 1}}); err == nil {
		t.Error("3-D relation must be rejected by the 2-D index")
	}
}

func TestEquiangularSlopes(t *testing.T) {
	for k := 1; k <= 6; k++ {
		s := EquiangularSlopes(k)
		if len(s) != k {
			t.Fatalf("k=%d: %v", k, s)
		}
		for i := 1; i < len(s); i++ {
			if s[i] <= s[i-1] {
				t.Fatalf("k=%d not increasing: %v", k, s)
			}
		}
	}
	// Symmetry: slopes come in ± pairs (odd k includes 0).
	s := EquiangularSlopes(3)
	if math.Abs(s[1]) > 1e-12 || math.Abs(s[0]+s[2]) > 1e-9 {
		t.Fatalf("k=3 slopes not symmetric: %v", s)
	}
	if EquiangularSlopes(0) != nil {
		t.Fatal("k=0 must be nil")
	}
}

func TestPagesAndPool(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	opt := Options{Slopes: EquiangularSlopes(3), Technique: T2}
	_, ix := buildRandomIndex(t, rng, 500, opt, false)
	if ix.Pages() <= 0 {
		t.Fatal("index must occupy pages")
	}
	// The store holds the tree pages plus the one reserved catalog page.
	if ix.Pages()+1 != ix.Pool().Store().NumAllocated() {
		t.Fatalf("Pages() = %d, store allocated %d", ix.Pages(), ix.Pool().Store().NumAllocated())
	}
	// Space grows linearly with k: 2·k trees (Theorem 3.1's O(k·n)).
	opt5 := Options{Slopes: EquiangularSlopes(5), Technique: T2}
	rng2 := rand.New(rand.NewSource(106))
	_, ix5 := buildRandomIndex(t, rng2, 500, opt5, false)
	lo := float64(ix.Pages()) * 5 / 3 * 0.8
	hi := float64(ix.Pages()) * 5 / 3 * 1.2
	if p := float64(ix5.Pages()); p < lo || p > hi {
		t.Fatalf("k=5 pages %v outside [%v, %v] (k=3: %d)", p, lo, hi, ix.Pages())
	}
}

func TestRebuildHandicapsPreservesAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	rel, ix := buildRandomIndex(t, rng, 200, Options{Slopes: EquiangularSlopes(3), Technique: T2}, true)
	// Delete a third of the tuples, leaving the handicaps stale.
	ids := rel.IDs()
	for i := 0; i < len(ids)/3; i++ {
		if err := ix.Delete(ids[i*3]); err != nil {
			t.Fatal(err)
		}
	}
	q := randQuery(rng)
	before, err := ix.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.RebuildHandicaps(); err != nil {
		t.Fatal(err)
	}
	after, err := ix.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(before.IDs, after.IDs) {
		t.Fatalf("rebuild changed answers: %v vs %v", before.IDs, after.IDs)
	}
	want, _ := q.Eval(rel)
	if !sameIDs(after.IDs, want) {
		t.Fatalf("post-rebuild answers wrong: %v vs %v", after.IDs, want)
	}
}

// TestRebuildHandicapsDerivesBounds: Build bounds every leaf by exactly the
// union of its entries' x-extents, rounded outward to float32; a delete
// leaves the bounds as they are; a handicap rebuild derives them exactly from
// the live tuples again; and an insert widens the bounds on its path by its
// extent.
func TestRebuildHandicapsDerivesBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(108))
	rel, ix := buildRandomIndex(t, rng, 600, Options{Slopes: EquiangularSlopes(3), Technique: T2}, false)
	// bounds returns every leaf's bound in tree and key order, and beside it
	// the union of its entries' extents rounded outward.
	bounds := func() (got, exact [][2]float64) {
		for _, tr := range ix.roots.Load().trees {
			if err := tr.VisitLeavesAsc(math.Inf(-1), func(lv btree.LeafView) bool {
				x := [2]float64{math.Inf(1), math.Inf(-1)}
				for i := 0; i < lv.Len(); i++ {
					tp, err := rel.Get(constraint.TupleID(lv.TID(i)))
					if err != nil {
						t.Fatal(err)
					}
					x = btree.Union(x, xExtent(tp))
				}
				got, exact = append(got, lv.Extent()), append(exact, outward(x))
				return true
			}); err != nil {
				t.Fatal(err)
			}
		}
		return got, exact
	}
	if ix.trees[0].Height() < 2 {
		t.Fatal("one leaf a tree: no bound to check")
	}
	if got, exact := bounds(); !slices.Equal(got, exact) {
		t.Fatalf("built bounds %v, the entries' %v", got, exact)
	}
	// The tuple with the lowest infX: its leaves' bounds reach that far.
	var lowest constraint.TupleID
	low := math.Inf(1)
	rel.Scan(func(tp *constraint.Tuple) bool {
		if x := xExtent(tp)[0]; x < low {
			lowest, low = tp.ID(), x
		}
		return true
	})
	was, _ := bounds()
	if err := ix.Delete(lowest); err != nil {
		t.Fatal(err)
	}
	if got, _ := bounds(); !slices.Equal(got, was) {
		t.Fatalf("bounds after a delete %v, want them kept at %v", got, was)
	}
	if err := ix.RebuildHandicaps(); err != nil {
		t.Fatal(err)
	}
	got, exact := bounds()
	if !slices.Equal(got, exact) || slices.Equal(got, was) {
		t.Fatalf("rebuilt bounds %v, the live tuples' %v; they were %v", got, exact, was)
	}
	b := ix.Begin()
	if err := b.RebuildHandicaps(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Insert(box2(t, low-1, low, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	got, exact = bounds()
	reached := 0
	for i := range got {
		if !btree.Holds(got[i], exact[i]) {
			t.Fatalf("leaf %d's bound %v after a rebuild and an insert in one batch, its entries' %v", i, got[i], exact[i])
		}
		if got[i][0] <= low-1 {
			reached++
		}
	}
	if reached != 2*len(ix.Slopes()) {
		t.Fatalf("%d leaves bounded by the insert's infX %v, want one a tree", reached, low-1)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// outward rounds an extent to the float32s a bound stores: infX down, supX
// up.
func outward(x [2]float64) [2]float64 {
	lo, hi := float32(x[0]), float32(x[1])
	if float64(lo) > x[0] {
		lo = math.Nextafter32(lo, float32(math.Inf(-1)))
	}
	if float64(hi) < x[1] {
		hi = math.Nextafter32(hi, float32(math.Inf(1)))
	}
	return [2]float64{float64(lo), float64(hi)}
}

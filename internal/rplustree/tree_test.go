package rplustree

import (
	"math"
	"math/rand"
	"testing"

	"dualcdb/internal/pagestore"
)

func newPool(pageSize int) *pagestore.Pool {
	return pagestore.NewPool(pagestore.NewMemStore(pageSize), 512)
}

func randItems(rng *rand.Rand, n int, maxSide float64) []Item {
	items := make([]Item, n)
	for i := range items {
		cx, cy := rng.Float64()*100-50, rng.Float64()*100-50
		w, h := rng.Float64()*maxSide, rng.Float64()*maxSide
		items[i] = Item{
			R:   Rect{MinX: cx - w/2, MinY: cy - h/2, MaxX: cx + w/2, MaxY: cy + h/2},
			TID: uint32(i + 1),
		}
	}
	return items
}

// searchAllTIDs runs a rect search and returns the distinct tids found.
func searchAllTIDs(t *testing.T, tr *Tree, q Rect) map[uint32]bool {
	t.Helper()
	got := make(map[uint32]bool)
	if err := tr.SearchRect(q, func(tid uint32, _ Rect) { got[tid] = true }); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestRectOps(t *testing.T) {
	a := Rect{0, 0, 2, 2}
	b := Rect{1, 1, 3, 3}
	c := Rect{5, 5, 6, 6}
	if !a.Intersects(b) || a.Intersects(c) {
		t.Error("intersection tests")
	}
	if !a.Intersects(Rect{2, 0, 4, 2}) {
		t.Error("edge-touching rectangles intersect (closed sets)")
	}
	if !a.Contains(Rect{0.5, 0.5, 1, 1}) || a.Contains(b) {
		t.Error("containment tests")
	}
	if u := a.Union(c); u != (Rect{0, 0, 6, 6}) {
		t.Errorf("union = %+v", u)
	}
	if a.Area() != 4 {
		t.Errorf("area = %v", a.Area())
	}
}

func TestRectIntersectsHalfPlane(t *testing.T) {
	r := Rect{0, 0, 2, 2}
	// y ≥ 1 crosses the box: 0·x + 1·y − 1 ≥ 0.
	if !r.IntersectsHalfPlane(0, 1, -1, false) {
		t.Error("y ≥ 1 must intersect [0,2]²")
	}
	// y ≥ 3 misses it.
	if r.IntersectsHalfPlane(0, 1, -3, false) {
		t.Error("y ≥ 3 must miss [0,2]²")
	}
	// y ≤ −1 misses it.
	if r.IntersectsHalfPlane(0, 1, 1, true) {
		t.Error("y ≤ −1 must miss [0,2]²")
	}
	// Infinite region always intersects any half-plane.
	if !WorldRect().IntersectsHalfPlane(1, -1, 1000, true) {
		t.Error("world region intersects every half-plane")
	}
	// x + y ≤ 0 touches the box at the corner (0,0).
	if !r.IntersectsHalfPlane(1, 1, 0, true) {
		t.Error("x + y ≤ 0 touches [0,2]² at the origin")
	}
}

func TestBulkSearchMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	items := randItems(rng, 2000, 8)
	tr, err := Bulk(newPool(1024), items)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		q := randItems(rng, 1, 30)[0].R
		got := searchAllTIDs(t, tr, q)
		for _, it := range items {
			want := it.R.Intersects(q)
			if got[it.TID] != want {
				t.Fatalf("tid %d: got %v, want %v (q=%+v r=%+v)", it.TID, got[it.TID], want, q, it.R)
			}
		}
	}
}

func TestBulkHalfPlaneSearchComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	items := randItems(rng, 1500, 10)
	tr, err := Bulk(newPool(1024), items)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 60; trial++ {
		a := rng.NormFloat64() * 2
		b := 1.0
		c := rng.Float64()*100 - 50
		le := rng.Intn(2) == 0
		got := make(map[uint32]bool)
		if _, err := tr.SearchHalfPlane(a, b, c, le, func(tid uint32, _ Rect) { got[tid] = true }); err != nil {
			t.Fatal(err)
		}
		for _, it := range items {
			want := it.R.IntersectsHalfPlane(a, b, c, le)
			if want && !got[it.TID] {
				t.Fatalf("missed tid %d for half-plane (%v,%v,%v,%v)", it.TID, a, b, c, le)
			}
			if !want && got[it.TID] {
				t.Fatalf("spurious tid %d", it.TID)
			}
		}
	}
}

func TestInsertIdenticalRectsOverflowChain(t *testing.T) {
	// Degenerate: many identical rectangles cannot be separated by any cut.
	// Every quantile cut falls on their shared center, so each grid cell
	// holds all of them in a leaf chained over overflow pages, and every
	// search must walk the whole chain.
	r := Rect{0, 0, 1, 1}
	n := 200
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{R: r, TID: uint32(i + 1)}
	}
	pool := newPool(1024)
	tr, err := Bulk(pool, items)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := searchAllTIDs(t, tr, Rect{0.5, 0.5, 0.6, 0.6}); len(got) != n {
		t.Fatalf("SearchRect found %d of %d identical objects", len(got), n)
	}
	found := make(map[uint32]bool)
	visited, err := tr.SearchHalfPlane(0, 1, -0.5, false, func(tid uint32, _ Rect) { found[tid] = true })
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != n {
		t.Fatalf("SearchHalfPlane found %d of %d identical objects", len(found), n)
	}
	cells := tr.Size() / n
	if cells < 1 || tr.Size() != cells*n {
		t.Fatalf("Size() = %d references, want every cell to hold all %d objects", tr.Size(), n)
	}
	// Each cell is a chain of ⌈n/28⌉ pages (28 entries fit a 1 KiB page);
	// Pages() counts them all, and a half-plane meeting every object reads
	// every page.
	chain := (n + 27) / 28
	if tr.Pages() != pool.Store().NumAllocated() || tr.Pages() < cells*chain {
		t.Fatalf("Pages() = %d, store holds %d, want ≥ %d cells × %d chained pages",
			tr.Pages(), pool.Store().NumAllocated(), cells, chain)
	}
	if visited != tr.Pages() {
		t.Fatalf("SearchHalfPlane visited %d of %d pages", visited, tr.Pages())
	}
}

func TestUnboundedItemsRejected(t *testing.T) {
	// Stored objects must be bounded; before this was enforced, an infinite
	// MBR reached buildGrid, whose center arithmetic (MinX+MaxX)/2 produced
	// NaN and silently corrupted the grid partitioning.
	bad := []Rect{
		WorldRect(),
		{MinX: math.Inf(-1), MinY: 0, MaxX: 1, MaxY: 1},
		{MinX: 0, MinY: 0, MaxX: math.Inf(1), MaxY: 1},
		{MinX: 0, MinY: math.NaN(), MaxX: 1, MaxY: 1},
	}
	for _, r := range bad {
		if _, err := Bulk(newPool(1024), []Item{{R: r, TID: 1}}); err == nil {
			t.Errorf("Bulk accepted unbounded/invalid rect %+v", r)
		}
	}
	// Bounded items still load.
	if _, err := Bulk(newPool(1024), []Item{{R: Rect{0, 0, 1, 1}, TID: 2}}); err != nil {
		t.Fatal(err)
	}
}

func TestBulkEmpty(t *testing.T) {
	tr, err := Bulk(newPool(1024), nil)
	if err != nil {
		t.Fatal(err)
	}
	got := searchAllTIDs(t, tr, WorldRect())
	if len(got) != 0 {
		t.Fatalf("empty tree returned %v", got)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Pages() != 1 {
		t.Fatalf("empty tree occupies %d pages, want its one empty leaf", tr.Pages())
	}
}

func TestLargeObjectsDegradeSelectiveQueries(t *testing.T) {
	// The R⁺-tree pathology the paper leans on (Figure 9): large objects
	// straddle region boundaries, forcing duplication or chained leaves,
	// so a selective query prunes far less of a big-object tree than of a
	// small-object tree.
	visitFraction := func(maxSide float64) float64 {
		rng := rand.New(rand.NewSource(15))
		tr, err := Bulk(newPool(1024), randItems(rng, 2000, maxSide))
		if err != nil {
			t.Fatal(err)
		}
		// Selective query: y ≥ 45 touches ~5 % of centers.
		visited, err := tr.SearchHalfPlane(0, 1, -45, false, func(uint32, Rect) {})
		if err != nil {
			t.Fatal(err)
		}
		return float64(visited) / float64(tr.Pages())
	}
	small := visitFraction(2)
	big := visitFraction(30)
	if big <= small {
		t.Fatalf("pruning: big-object visit fraction %.2f ≤ small-object %.2f", big, small)
	}
}

func TestPagesAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	pool := newPool(1024)
	tr, err := Bulk(pool, randItems(rng, 3000, 5))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Pages() != pool.Store().NumAllocated() {
		t.Fatalf("tree pages %d != store %d", tr.Pages(), pool.Store().NumAllocated())
	}
}

func TestSearchIOCostBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pool := newPool(1024)
	tr, err := Bulk(pool, randItems(rng, 5000, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.EvictAll(); err != nil {
		t.Fatal(err)
	}
	pool.ResetStats()
	// A selective half-plane: y ≥ 49 touches few objects.
	visited, err := tr.SearchHalfPlane(0, 1, -49, false, func(uint32, Rect) {})
	if err != nil {
		t.Fatal(err)
	}
	if visited > tr.Pages()/3 {
		t.Fatalf("selective query visited %d of %d pages", visited, tr.Pages())
	}
	if got := pool.Stats().PhysicalReads; got > uint64(visited) {
		t.Fatalf("physical reads %d > visited nodes %d", got, visited)
	}
}

func TestWorldRectMath(t *testing.T) {
	w := WorldRect()
	if !math.IsInf(w.Area(), 1) {
		t.Error("world area must be +Inf")
	}
	l := w.cutLeft(0, 3)
	r := w.cutRight(0, 3)
	if l.MaxX != 3 || r.MinX != 3 {
		t.Errorf("cuts: %+v %+v", l, r)
	}
}

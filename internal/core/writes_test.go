package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"dualcdb/internal/btree"
	"dualcdb/internal/constraint"
	"dualcdb/internal/geom"
	"dualcdb/internal/pagestore"
)

// Tests of the write side's cost rules (DESIGN.md §20): the persistent
// id → tuple table and the handicap folds.

// leafSlots returns the handicap slots of every leaf of every site tree, in
// tree and key order, as bit patterns, with the first key of every leaf but a
// tree's first — after a bulk load, the separators' keys.
func leafSlots(t *testing.T, ix *Index) (slots [][]uint64, sepKeys map[float64]bool) {
	t.Helper()
	sepKeys = map[float64]bool{}
	for j, tr := range ix.trees[:2*ix.geo.sites()] {
		first := true
		err := tr.VisitLeavesAsc(math.Inf(-1), func(lv btree.LeafView) bool {
			bits := []uint64{uint64(j)}
			for s := 0; s < tr.NumHandicaps(); s++ {
				bits = append(bits, math.Float64bits(lv.Handicap(s)))
			}
			slots = append(slots, bits)
			if !first && lv.Len() > 0 {
				sepKeys[lv.Key(0)] = true
			}
			first = false
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return slots, sepKeys
}

// TestHandicapFoldsAreBitIdentical requires every slot of every leaf of every
// tree to carry the same bits after (a) Build's SetHandicaps walk, (b)
// RebuildHandicaps in a batch and (c) the reference the walk replaced — the
// slots reset and one MergeHandicap call per tuple, site and slot — over a
// 2-D relation of bounded, unbounded and degenerate tuples (route keys at ±Inf
// and rounding onto separators' own keys, both counted) and over 3-D lattice
// sites, on bulk-loaded trees and on trees 200 deletes have reshaped.
func TestHandicapFoldsAreBitIdentical(t *testing.T) {
	reference := func(ix *Index) {
		for _, tr := range ix.trees[:2*ix.geo.sites()] {
			if err := tr.SetHandicaps(nil, nil); err != nil { // every slot to its identity
				t.Fatal(err)
			}
		}
		ix.rel.Scan(func(tp *constraint.Tuple) bool {
			if !tp.IsSatisfiable() {
				return true
			}
			for i := 0; i < ix.geo.sites(); i++ {
				top, bot := ix.keys(tp, i)
				up, down := ix.geo.routes(tp, i)
				for slot := range ix.geo.slotKinds() {
					if err := ix.trees[2*i].MergeHandicap(up[slot], slot, top); err != nil {
						t.Fatal(err)
					}
					if err := ix.trees[2*i+1].MergeHandicap(down[slot], slot, bot); err != nil {
						t.Fatal(err)
					}
				}
			}
			return true
		})
	}
	for _, c := range engineCases {
		if c.name == "2d-slopes-t1" {
			continue // the same trees as 2d-slopes
		}
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(81))
			rel := constraint.NewRelation(c.dim)
			var ts []*constraint.Tuple
			if c.dim == 2 {
				ts = shapes2(t, rng)
			}
			for len(ts) < 500 {
				ts = append(ts, c.tuple(rng, len(ts)%3 == 0))
			}
			for _, tp := range ts {
				if _, err := rel.Insert(tp); err != nil {
					t.Fatal(err)
				}
			}
			ix, err := c.build(rel, nil)
			if err != nil {
				t.Fatal(err)
			}
			built, sepKeys := leafSlots(t, ix)
			if perTree := len(built) / (2 * ix.geo.sites()); perTree < 5 {
				t.Fatalf("%d leaves a tree: nothing to bin over", perTree)
			}

			infinite, onSeparator := 0, 0
			for _, tp := range ts {
				for i := 0; i < ix.geo.sites(); i++ {
					up, down := ix.geo.routes(tp, i)
					for slot := range ix.geo.slotKinds() {
						for _, k := range []float64{up[slot], down[slot]} {
							if math.IsInf(k, 0) {
								infinite++
							}
							if sepKeys[btree.RoundKey(k)] {
								onSeparator++
							}
						}
					}
				}
			}
			if c.dim == 2 && (infinite == 0 || onSeparator == 0) {
				t.Fatalf("%d infinite route keys, %d on a separator's key: the relation misses a case", infinite, onSeparator)
			}

			reference(ix) // in place: the test owns the index
			merged, _ := leafSlots(t, ix)
			if !slices.EqualFunc(built, merged, slices.Equal[[]uint64]) {
				t.Errorf("Build and the per-tuple reference differ: %s", firstSlotDiff(built, merged))
			}

			// Deletes leave slots stale and leaves merged: the rebuild has
			// something to undo, over a tree no bulk load shaped.
			for _, tp := range ts[:200] {
				if err := ix.Delete(tp.ID()); err != nil {
					t.Fatal(err)
				}
			}
			if err := ix.RebuildHandicaps(); err != nil {
				t.Fatal(err)
			}
			rebuilt, _ := leafSlots(t, ix)
			reference(ix)
			merged, _ = leafSlots(t, ix)
			if !slices.EqualFunc(rebuilt, merged, slices.Equal[[]uint64]) {
				t.Errorf("RebuildHandicaps in a batch and the per-tuple reference differ: %s", firstSlotDiff(rebuilt, merged))
			}
			if slices.EqualFunc(rebuilt, built, slices.Equal[[]uint64]) {
				t.Error("the rebuild after 200 deletes left the built slots: nothing was compared")
			}
		})
	}
}

func firstSlotDiff(a, b [][]uint64) string {
	for i := 0; i < len(a) && i < len(b); i++ {
		if !slices.Equal(a[i], b[i]) {
			return fmt.Sprintf("leaf %d (tree %d): %x vs %x", i, a[i][0], a[i][1:], b[i][1:])
		}
	}
	return fmt.Sprintf("%d leaves vs %d", len(a), len(b))
}

// churnPairs commits pairs one-op inserts, each followed by the one-op delete
// of the tuple it inserted.
func churnPairs(t *testing.T, ix *Index, rng *rand.Rand, pairs int) {
	t.Helper()
	for i := 0; i < pairs; i++ {
		id, err := ix.Insert(randTuple(rng, false))
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCommitBytesDoNotGrowWithN pins what the table is for: a one-op commit
// over 16 000 tuples may allocate at most 1 KB more than one over 2 000 (the
// spine is a pointer per 256 ids). 4 KiB pages keep both relations' trees two
// levels tall, so both commits clone the same number of pages and the store's
// buffer per clone cancels.
func TestCommitBytesDoNotGrowWithN(t *testing.T) {
	perCommit := func(n int) float64 {
		rng := rand.New(rand.NewSource(61))
		_, ix := buildRandomIndex(t, rng, n, Options{Slopes: EquiangularSlopes(2), Technique: T2, PageSize: 4096, PoolPages: 1 << 12}, false)
		if h := ix.trees[0].Height(); h != 2 {
			t.Fatalf("N = %d: trees of height %d, want 2 at both sizes", n, h)
		}
		churn := func(pairs int) { churnPairs(t, ix, rng, pairs) }
		churn(20) // warm the pool and the free list, and grow xext past Build's exact size
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		churn(100)
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / 200
	}
	small, large := perCommit(2000), perCommit(16000)
	t.Logf("bytes per one-op commit: %.0f at N = 2 000, %.0f at N = 16 000", small, large)
	if large-small > 1024 {
		t.Errorf("a commit at N = 16 000 allocates %.0f B more than at N = 2 000, want ≤ 1024", large-small)
	}
}

// TestTupleTableAcrossChunkBoundaries drives the table over the edges of its
// 256-id chunks — ids 255, 256 and 257 committed one by one, a tuple inserted
// and deleted by one batch, an aborted batch burning ids across a boundary,
// deletes that nil slots and inserts that fill slots of chunks pinned
// snapshots share — beside readers (run it under -race): every snapshot
// pinned along the way must resolve, scan and answer exactly its own
// version's tuples after all later commits.
func TestTupleTableAcrossChunkBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	rel, ix := buildRandomIndex(t, rng, 250, Options{Slopes: EquiangularSlopes(2), Technique: T2}, false)
	everything := constraint.Query2(constraint.EXIST, 0, -1e9, geom.GE)

	type pin struct {
		what string
		snap *Snapshot
		ts   map[constraint.TupleID]*constraint.Tuple
	}
	var pins []pin
	pinNow := func(what string) {
		p := pin{what: what, snap: ix.Snapshot(), ts: map[constraint.TupleID]*constraint.Tuple{}}
		rel.Scan(func(tp *constraint.Tuple) bool {
			p.ts[tp.ID()] = tp
			return true
		})
		pins = append(pins, p)
	}
	// verify reports through t.Errorf only: readers call it off the test's
	// goroutine.
	verify := func(p pin) {
		rs := p.snap.rs
		var want []constraint.TupleID
		for id := constraint.TupleID(0); int(id) <= rs.tuples.MaxID()+256; id++ {
			got, err := rs.candidate(uint32(id))
			if tp := p.ts[id]; tp != got || (tp == nil) != errors.Is(err, constraint.ErrNotFound) {
				t.Errorf("%s: candidate(%d) = %p, %v; the version holds %p", p.what, id, got, err, tp)
				return
			}
			if p.ts[id] != nil {
				want = append(want, id)
			}
		}
		var scanned []constraint.TupleID
		rs.tuples.Scan(func(tp *constraint.Tuple) bool {
			scanned = append(scanned, tp.ID())
			return true
		})
		ids := make([]constraint.TupleID, 0, len(want))
		for _, id := range rs.allIDs(nil) {
			ids = append(ids, constraint.TupleID(id))
		}
		res, err := p.snap.Query(everything)
		if err != nil {
			t.Errorf("%s: %v", p.what, err)
			return
		}
		if !sameIDs(scanned, want) || !sameIDs(ids, want) || !sameIDs(res.IDs, want) || rs.live != len(want) {
			t.Errorf("%s: Scan %d ids, allIDs %d, query %d, live %d; the version holds %d", p.what, len(scanned), len(ids), len(res.IDs), rs.live, len(want))
		}
	}
	verifyAll := func() {
		t.Helper()
		for _, p := range pins {
			verify(p)
		}
		if t.Failed() {
			t.FailNow()
		}
	}
	insert := func(want constraint.TupleID) {
		t.Helper()
		id, err := ix.Insert(randTuple(rng, false))
		if err != nil || id != want {
			t.Fatalf("insert: id %d, %v; want id %d", id, err, want)
		}
	}
	remove := func(id constraint.TupleID) {
		t.Helper()
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}

	pinNow("built")
	for id := constraint.TupleID(251); id <= 254; id++ {
		insert(id)
	}
	// The first chunk's last two slots, then the second chunk's first.
	for id := constraint.TupleID(255); id <= 257; id++ {
		pinNow(fmt.Sprintf("before %d", id))
		insert(id)
		verifyAll()
	}
	if got := ix.roots.Load().tuples.MaxID(); got != 257 {
		t.Fatalf("the version covers %d ids, want 257", got)
	}

	// One batch: a tuple born and deleted (id 258), and the boundary's two
	// neighbours deleted from under the snapshots that hold them.
	pinNow("before the batch")
	b := ix.Begin()
	born, err := b.Insert(randTuple(rng, false))
	if err != nil || born != 258 {
		t.Fatalf("batch insert: id %d, %v", born, err)
	}
	for _, id := range []constraint.TupleID{born, 256, 257} {
		if err := b.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	pinNow("after the batch")
	verifyAll()

	// An aborted batch burns ids 259..558, across the boundary at 512; the
	// next insert lands in the third chunk with the second's tail unassigned.
	b = ix.Begin()
	for i := 0; i < 300; i++ {
		if _, err := b.Insert(randTuple(rng, false)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Abort(); err != nil {
		t.Fatal(err)
	}
	verifyAll()
	insert(559)
	pinNow("past the burned ids")
	if got := ix.roots.Load().tuples.MaxID(); got != 559 {
		t.Fatalf("the version covers %d ids, want 559", got)
	}
	verifyAll()

	// Readers re-read every pinned version while the writer keeps nilling and
	// filling slots of the chunks they share.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				for _, p := range pins {
					select {
					case <-stop:
						return
					default:
						verify(p)
					}
				}
			}
		}()
	}
	for i := 0; i < 40; i++ {
		remove(constraint.TupleID(1 + 6*i)) // the first chunk
		insert(constraint.TupleID(560 + i)) // the third
	}
	remove(255)
	remove(559)
	close(stop)
	wg.Wait()
	pinNow("at the end")
	verifyAll()

	for _, p := range pins {
		p.snap.Release()
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestChurnLeavesHeapWhereItStarted is why the table is path-copied and not
// append-only like xext: a deleted tuple must become garbage once no version
// holds it. 20 000 one-op commits — 10 000 tuples born and deleted — may
// leave the live heap at most 1 MB above where it started (what does stay is
// 8 B a burned id in the table and 16 B in xext).
func TestChurnLeavesHeapWhereItStarted(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	_, ix := buildRandomIndex(t, rng, 300, Options{Slopes: EquiangularSlopes(2), Technique: T2, PoolPages: 1 << 10}, false)
	churn := func(pairs int) { churnPairs(t, ix, rng, pairs) }
	heap := func() float64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return float64(m.HeapAlloc)
	}
	churn(200) // the pool, the store's free list and the scratch pools fill
	before := heap()
	churn(10000)
	after := heap()
	t.Logf("live heap: %.0f KB before, %.0f KB after 20 000 commits", before/1024, after/1024)
	if after-before > 1<<20 {
		t.Errorf("20 000 insert/delete commits left %.0f KB on the heap, want ≤ 1024", (after-before)/1024)
	}
	runtime.KeepAlive(ix)
}

// TestSaveRefusesTupleWithoutConstraints: a tuple given by vertices and a ray
// has no constraints to write down, and Save used to persist it as the whole
// plane under the keys of what it was. Save must refuse the relation with
// geom.ErrNoHRep, leave store and index as they were, and once the tuple is
// gone Save → Open must not move an answer.
func TestSaveRefusesTupleWithoutConstraints(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	store := pagestore.NewMemStore(1024)
	rel := constraint.NewRelation(2)
	for i := 0; i < 60; i++ {
		if _, err := rel.Insert(randTuple(rng, i%4 == 0)); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := Build(rel, Options{Slopes: EquiangularSlopes(3), Technique: T2, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(); err != nil {
		t.Fatal(err)
	}
	under := alignedVertices(t)
	if under.HasHRep() || len(under.Constraints()) != 0 || !under.IsSatisfiable() {
		t.Fatalf("alignedVertices: HasHRep %v with %d constraints", under.HasHRep(), len(under.Constraints()))
	}
	id, err := ix.Insert(under)
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]constraint.Query, 200)
	for i := range qs {
		qs[i] = randQuery(rng)
	}
	answers := func(ix *Index) [][]constraint.TupleID {
		t.Helper()
		out := make([][]constraint.TupleID, len(qs))
		for i, q := range qs {
			res, err := ix.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = res.IDs
		}
		return out
	}
	want := answers(ix)
	matched := 0
	for _, ids := range want {
		if slices.Contains(ids, id) {
			matched++
		}
	}
	if matched == 0 || matched == len(qs) {
		t.Fatalf("the tuple is in %d of %d answers: the queries cannot tell it from the whole plane", matched, len(qs))
	}

	pages := store.NumAllocated()
	if err := ix.Save(); !errors.Is(err, geom.ErrNoHRep) {
		t.Fatalf("Save with a tuple without constraints: %v, want geom.ErrNoHRep", err)
	}
	if got := store.NumAllocated(); got != pages {
		t.Errorf("the refused Save moved the store from %d to %d pages", pages, got)
	}
	if got := answers(ix); !slices.EqualFunc(got, want, sameIDs) {
		t.Error("the refused Save moved an answer")
	}
	if err := ix.Delete(id); err != nil {
		t.Fatal(err)
	}
	want = answers(ix)
	if err := ix.Save(); err != nil {
		t.Fatal(err)
	}
	_, reopened, err := Open(pagestore.NewPool(store, 1<<10))
	if err != nil {
		t.Fatal(err)
	}
	if got := answers(reopened); !slices.EqualFunc(got, want, sameIDs) {
		t.Error("Save → Open moved an answer")
	}
}

// opCost sums what one kind of one-op commit costs: heap allocations, pool
// reads and page clones.
type opCost struct{ ops, allocs, reads, clones uint64 }

// measure runs op and adds its allocations, pool reads and clones.
func (c *opCost) measure(pool *pagestore.Pool, op func()) {
	var before, after runtime.MemStats
	s0 := pool.Stats()
	runtime.ReadMemStats(&before)
	op()
	runtime.ReadMemStats(&after)
	s1 := pool.Stats()
	c.ops++
	c.allocs += after.Mallocs - before.Mallocs
	c.reads += s1.LogicalReads - s0.LogicalReads
	c.clones += s1.Clones - s0.Clones
}

func (c opCost) per(v uint64) float64 { return float64(v) / float64(c.ops) }

// TestOneOpCommitAllocations guards what a warm one-op commit costs at the
// benchmark's scale (N = 12 000, k = 4, eight trees three levels tall): a
// Delete allocates at most 12 objects and an Insert 16, because a commit
// reuses each tree's copy-on-write bookkeeping and holds a version's handles
// in one array; and a Delete reads at most 32 pages through the pool and an
// Insert 120, because a clone copies from the frame its descent holds
// (DESIGN.md §13). Ahead of them it holds Build to 936 pool reads and
// RebuildHandicaps to 928 and 896 clones: one SetHandicaps walk a tree reads
// each of the 896 pages once — the rebuild's batch clones each once — the
// separators' binning reads the 32 internal nodes once more, and BulkLoad
// reads each tree's empty root leaf.
func TestOneOpCommitAllocations(t *testing.T) {
	_, ix, _ := benchIndex(t, 12000, 4, T2)
	pool := ix.Pool()
	built := pool.Stats().LogicalReads // the pool is Build's own
	s0 := pool.Stats()
	if err := ix.RebuildHandicaps(); err != nil {
		t.Fatal(err)
	}
	s1 := pool.Stats()
	rebuilt, clones, pages := s1.LogicalReads-s0.LogicalReads, s1.Clones-s0.Clones, uint64(ix.Pages())
	t.Logf("Build: %d pool reads; RebuildHandicaps: %d pool reads, %d clones; %d pages", built, rebuilt, clones, pages)
	if built > 936 {
		t.Errorf("Build reads %d pages through the pool, want ≤ 936", built)
	}
	if rebuilt > 928 {
		t.Errorf("RebuildHandicaps reads %d pages through the pool, want ≤ 928", rebuilt)
	}
	if clones != pages {
		t.Errorf("RebuildHandicaps cloned %d pages, want each of the %d once", clones, pages)
	}

	rng := rand.New(rand.NewSource(97))
	churnPairs(t, ix, rng, 16) // warm the pool, the free lists and the writer's buffers
	var ins, del opCost
	for i := 0; i < 64; i++ {
		tup := randTuple(rng, false)
		var id constraint.TupleID
		var err error
		ins.measure(pool, func() { id, err = ix.Insert(tup) })
		if err != nil {
			t.Fatal(err)
		}
		del.measure(pool, func() { err = ix.Delete(id) })
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		op            string
		cost          opCost
		allocs, reads float64
	}{{"Insert", ins, 16, 120}, {"Delete", del, 12, 32}} {
		a, r := c.cost.per(c.cost.allocs), c.cost.per(c.cost.reads)
		t.Logf("%s: %.1f allocs, %.1f pool reads, %.1f clones a commit", c.op, a, r, c.cost.per(c.cost.clones))
		if a > c.allocs {
			t.Errorf("a one-op %s commit allocates %.1f objects, want ≤ %.0f", c.op, a, c.allocs)
		}
		if r > c.reads {
			t.Errorf("a one-op %s commit reads %.1f pages through the pool, want ≤ %.0f", c.op, r, c.reads)
		}
	}
}

package btree

import (
	"math"
	"math/rand"
	"testing"

	"dualcdb/internal/pagestore"
)

// handleOf freezes the tree's current version as a read handle, the way a
// published root set does.
func handleOf(tr *Tree) *Tree {
	h := tr.Handle(tr.Meta())
	return &h
}

func entriesOf(t *testing.T, tr *Tree) []Entry {
	t.Helper()
	es, err := tr.ScanAll()
	if err != nil {
		t.Fatal(err)
	}
	return es
}

func sameEntries(a, b []Entry) bool {
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

// TestCOWInsertPreservesPublishedHandle checks the heart of MVCC: a handle
// frozen before a batch sweeps exactly the old entries while the live tree
// takes inserts that split leaves and grow the root.
func TestCOWInsertPreservesPublishedHandle(t *testing.T) {
	tr, pool := newTestTree(t, 256, nil)
	for i := 0; i < 200; i++ {
		if err := tr.Insert(float64(i*2), uint32(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	before := entriesOf(t, tr)
	h := handleOf(tr)

	tr.BeginCOW()
	for i := 0; i < 200; i++ {
		if err := tr.Insert(float64(i*2+1), uint32(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.cowSanity(); err != nil {
		t.Fatal(err)
	}
	// Mid-batch: the handle still sees exactly the old entries.
	if got := entriesOf(t, h); !sameEntries(got, before) {
		t.Fatalf("handle drifted mid-batch: %d entries, want %d", len(got), len(before))
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatalf("handle invariants mid-batch: %v", err)
	}
	superseded := tr.CommitCOW()
	if len(superseded) == 0 {
		t.Fatal("no pages superseded by 200 COW inserts")
	}

	// Post-commit, pre-reclaim: handle still intact.
	if got := entriesOf(t, h); !sameEntries(got, before) {
		t.Fatal("handle drifted after commit")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("live tree invariants: %v", err)
	}
	if got := entriesOf(t, tr); len(got) != 400 {
		t.Fatalf("live tree has %d entries, want 400", len(got))
	}

	// With no snapshot pinned the superseded pages free immediately.
	pool.DeferFrees(2, superseded)
	if c := pool.SnapshotCensus(); c.DeferredPages != 0 {
		t.Fatalf("deferred pages after watermark free: %d", c.DeferredPages)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("live tree invariants after reclaim: %v", err)
	}
}

// TestCOWDeletePreservesPublishedHandle drives borrows and merges under a
// batch, then checks both versions.
func TestCOWDeletePreservesPublishedHandle(t *testing.T) {
	tr, pool := newTestTree(t, 256, nil)
	const n = 300
	for i := 0; i < n; i++ {
		if err := tr.Insert(float64(i), uint32(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	before := entriesOf(t, tr)
	h := handleOf(tr)

	tr.BeginCOW()
	rng := rand.New(rand.NewSource(7))
	deleted := map[int]bool{}
	for len(deleted) < n*3/4 {
		i := rng.Intn(n)
		if deleted[i] {
			continue
		}
		found, err := tr.Delete(float64(i), uint32(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("entry %d not found", i)
		}
		deleted[i] = true
	}
	if err := tr.cowSanity(); err != nil {
		t.Fatal(err)
	}
	if got := entriesOf(t, h); !sameEntries(got, before) {
		t.Fatalf("handle drifted mid-batch: %d entries, want %d", len(got), len(before))
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatalf("handle invariants mid-batch: %v", err)
	}
	superseded := tr.CommitCOW()

	if got := entriesOf(t, h); !sameEntries(got, before) {
		t.Fatal("handle drifted after commit")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("live tree invariants: %v", err)
	}
	if got := entriesOf(t, tr); len(got) != n-len(deleted) {
		t.Fatalf("live tree has %d entries, want %d", len(got), n-len(deleted))
	}

	pool.DeferFrees(2, superseded)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("live tree invariants after reclaim: %v", err)
	}
	if got := entriesOf(t, tr); len(got) != n-len(deleted) {
		t.Fatalf("post-reclaim live tree has %d entries", len(got))
	}
}

// TestAbortCOWRestores aborts a mixed batch and checks the tree reverts
// byte-for-byte in content and that the batch's pages are given back.
func TestAbortCOWRestores(t *testing.T) {
	store := pagestore.NewMemStore(256)
	pool := pagestore.NewPool(store, 256)
	tr, err := New(pool, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 150; i++ {
		if err := tr.Insert(float64(i), uint32(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	before := entriesOf(t, tr)
	meta := tr.Meta()
	allocated := store.NumAllocated()

	tr.BeginCOW()
	for i := 0; i < 60; i++ {
		if err := tr.Insert(float64(i)+0.5, uint32(2000+i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 60; i++ {
		if _, err := tr.Delete(float64(i), uint32(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.AbortCOW(); err != nil {
		t.Fatal(err)
	}
	if tr.Meta() != meta {
		t.Fatalf("meta not restored: %+v vs %+v", tr.Meta(), meta)
	}
	if got := entriesOf(t, tr); !sameEntries(got, before) {
		t.Fatal("entries not restored after abort")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := store.NumAllocated(); got != allocated {
		t.Fatalf("abort leaked pages: %d allocated, want %d", got, allocated)
	}
}

// TestCOWHandicapsShadow checks MergeHandicap and a reset — SetHandicaps
// with no merge — shadow their paths: the frozen handle keeps the old slot
// values.
func TestCOWHandicapsShadow(t *testing.T) {
	tr, _ := newTestTree(t, 256, []SlotKind{MinSlot, MaxSlot})
	for i := 0; i < 120; i++ {
		if err := tr.Insert(float64(i), uint32(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.MergeHandicap(10, 0, -5); err != nil {
		t.Fatal(err)
	}
	if err := tr.MergeHandicap(10, 1, 99); err != nil {
		t.Fatal(err)
	}
	readSlot := func(tree *Tree, key float64, slot int) float64 {
		leaf, err := tree.findLeaf(Entry{Key: key, TID: 0})
		if err != nil {
			t.Fatal(err)
		}
		defer leaf.release()
		return leaf.handicap(slot)
	}
	h := handleOf(tr)

	tr.BeginCOW()
	if err := tr.SetHandicaps(nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := tr.MergeHandicap(10, 0, -7); err != nil {
		t.Fatal(err)
	}
	tr.CommitCOW()

	if got := readSlot(h, 10, 0); got != -5 {
		t.Fatalf("handle slot 0 = %g, want -5", got)
	}
	if got := readSlot(h, 10, 1); got != 99 {
		t.Fatalf("handle slot 1 = %g, want 99", got)
	}
	if got := readSlot(tr, 10, 0); got != -7 {
		t.Fatalf("live slot 0 = %g, want -7", got)
	}
	if got := readSlot(tr, 10, 1); got != MaxSlot.Identity() {
		t.Fatalf("live slot 1 = %g, want identity", got)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCOWBatchesCompose runs several sequential batches with interleaved
// handles, checking every historical version stays sweepable until its
// pages are reclaimed.
func TestCOWBatchesCompose(t *testing.T) {
	tr, pool := newTestTree(t, 256, nil)
	rng := rand.New(rand.NewSource(42))
	present := map[uint32]float64{}
	var next uint32 = 1
	for i := 0; i < 100; i++ {
		k := rng.Float64() * 1000
		if err := tr.Insert(k, next); err != nil {
			t.Fatal(err)
		}
		present[next] = k
		next++
	}

	type version struct {
		h       *Tree
		entries []Entry
	}
	var versions []version
	ver := uint64(1)
	for round := 0; round < 8; round++ {
		versions = append(versions, version{h: handleOf(tr), entries: entriesOf(t, tr)})
		tr.BeginCOW()
		for i := 0; i < 30; i++ {
			k := rng.Float64() * 1000
			if err := tr.Insert(k, next); err != nil {
				t.Fatal(err)
			}
			present[next] = k
			next++
		}
		for id, k := range present {
			if rng.Float64() < 0.25 {
				if _, err := tr.Delete(k, id); err != nil {
					t.Fatal(err)
				}
				delete(present, id)
			}
		}
		superseded := tr.CommitCOW()
		ver++
		// Keep every version alive: pin version 1 for the whole test.
		if round == 0 {
			pool.PinVersion(1)
		}
		pool.DeferFrees(ver, superseded)
	}
	for i, v := range versions {
		if got := entriesOf(t, v.h); !sameEntries(got, v.entries) {
			t.Fatalf("version %d drifted: %d entries, want %d", i, len(got), len(v.entries))
		}
		if err := v.h.CheckInvariants(); err != nil {
			t.Fatalf("version %d invariants: %v", i, err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got, want := tr.Len(), len(present); got != want {
		t.Fatalf("live Len = %d, want %d", got, want)
	}
	pool.UnpinVersion(1)
	if c := pool.SnapshotCensus(); c.Active != 0 || c.DeferredPages != 0 {
		t.Fatalf("census after release: %+v", c)
	}
}

// TestColdSweepReadsEachPageOnce pins the cursor's cost model: a cold sweep
// over a COW-churned tree — leaves scattered across page ids — charges its
// ReadCounter exactly one physical read per distinct page: the descent
// path, every leaf visited, and each further internal node the sweep
// crosses into, once. A whole-tree sweep therefore reads every page of the
// version once, and a sweep that stops early reads nothing beyond the
// paths of the leaves it visited. A higher count is a page read twice.
func TestColdSweepReadsEachPageOnce(t *testing.T) {
	tr, pool := newTestTree(t, 256, []SlotKind{MinSlot})
	entries := make([]Entry, 600)
	for i := range entries {
		entries[i] = Entry{Key: float64(2 * i), TID: uint32(i + 1)}
	}
	if err := tr.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for v := uint64(2); v < 8; v++ {
		tr.BeginCOW()
		for j := 0; j < 40; j++ {
			i := rng.Intn(len(entries))
			if _, err := tr.Delete(float64(2*i), uint32(i+1)); err != nil {
				t.Fatal(err)
			}
			if err := tr.Insert(float64(2*rng.Intn(len(entries))+1), uint32(10000*int(v)+j)); err != nil {
				t.Fatal(err)
			}
		}
		pool.DeferFrees(v, tr.CommitCOW())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	h := handleOf(tr)
	if h.Height() < 3 {
		t.Fatalf("height %d: the sweep would cross no internal node below the root", h.Height())
	}
	leaves := walkLeaves(t, h)
	pos := map[pagestore.PageID]int{}
	for i, l := range leaves {
		pos[l.page] = i
	}

	// start is the leaf position the sweep begins at (−1: the far end for its
	// direction), limit the number of leaves it visits (0: all).
	for _, tc := range []struct {
		name         string
		asc          bool
		start, limit int
	}{
		{"asc/whole", true, -1, 0},
		{"desc/whole", false, -1, 0},
		{"asc/from-middle", true, len(leaves) / 3, 0},
		{"desc/from-middle", false, 2 * len(leaves) / 3, 0},
		{"asc/early-stop", true, len(leaves) / 4, len(leaves) / 2},
		{"desc/early-stop", false, 3 * len(leaves) / 4, len(leaves) / 2},
		{"asc/one-leaf", true, len(leaves) / 2, 1},
	} {
		from := math.Inf(-1)
		if !tc.asc {
			from = math.Inf(1)
		}
		if tc.start >= 0 {
			es := leaves[tc.start].entries
			from = es[len(es)/2].Key
		}
		if err := pool.EvictAll(); err != nil {
			t.Fatal(err)
		}
		pool.ResetStats()
		var rc pagestore.ReadCounter
		var visited []pagestore.PageID
		visit := func(lv LeafView) bool {
			visited = append(visited, lv.Page)
			return len(visited) != tc.limit
		}
		var err error
		if tc.asc {
			err = h.Sweep(from, true, &rc, nil, visit)
		} else {
			err = h.Sweep(from, false, &rc, nil, visit)
		}
		if err != nil {
			t.Fatal(err)
		}
		distinct := map[pagestore.PageID]bool{}
		for i, id := range visited {
			if distinct[id] {
				t.Fatalf("%s: leaf %d visited twice", tc.name, id)
			}
			distinct[id] = true
			step := 1
			if !tc.asc {
				step = -1
			}
			if i > 0 && pos[id] != pos[visited[i-1]]+step {
				t.Fatalf("%s: leaf %d follows leaf %d out of key order", tc.name, id, visited[i-1])
			}
			for _, in := range leaves[pos[id]].path {
				distinct[in] = true
			}
		}
		if tc.start >= 0 && visited[0] != leaves[tc.start].page {
			t.Fatalf("%s: sweep began at leaf %d, want %d", tc.name, visited[0], leaves[tc.start].page)
		}
		if tc.limit == 0 && tc.start < 0 && len(distinct) != h.Pages() {
			t.Fatalf("%s: whole sweep met %d distinct pages, the version has %d", tc.name, len(distinct), h.Pages())
		}
		want := uint64(len(distinct))
		if got := rc.Physical.Load(); got != want {
			t.Errorf("%s: ReadCounter charged %d physical reads, want %d (%d leaves + %d inner)",
				tc.name, got, want, len(visited), len(distinct)-len(visited))
		}
		if got := pool.Stats().PhysicalReads; got != want {
			t.Errorf("%s: pool read %d pages, want %d", tc.name, got, want)
		}
		if got := rc.Logical.Load(); got != want {
			t.Errorf("%s: ReadCounter charged %d logical reads, want %d", tc.name, got, want)
		}
	}
}

// TestMergeHandicapClonesOnlyWhenSlotMoves pins the read-first rule: under a
// batch a merge that leaves the slot's bits where they were clones nothing —
// not on a shared path, not on an owned one — and one that moves the slot
// clones the root-to-leaf path, once.
func TestMergeHandicapClonesOnlyWhenSlotMoves(t *testing.T) {
	tr, pool := newTestTree(t, 256, []SlotKind{MinSlot, MaxSlot})
	for i := 0; i < 400; i++ {
		if err := tr.Insert(float64(i), uint32(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() < 3 {
		t.Fatalf("height %d, want a path of at least 3 pages", tr.Height())
	}
	for _, m := range []HandicapMerge{{200, 0, -5}, {200, 1, 5}} {
		if err := tr.MergeHandicap(m.RouteKey, m.Slot, m.Value); err != nil {
			t.Fatal(err)
		}
	}
	h := handleOf(tr)
	before := slotsOf(walkLeaves(t, h))

	tr.BeginCOW()
	clones := func(m HandicapMerge) uint64 {
		t.Helper()
		c := pool.CloneCount()
		if err := tr.MergeHandicap(m.RouteKey, m.Slot, m.Value); err != nil {
			t.Fatal(err)
		}
		return pool.CloneCount() - c
	}
	for _, m := range []HandicapMerge{
		{200, 0, -5}, {200, 0, 3}, {200, 0, math.Inf(1)}, // min keeps −5
		{200, 1, 5}, {200, 1, -3}, {200, 1, math.Inf(-1)}, // max keeps 5
		{10, 0, math.Inf(1)}, {399, 1, math.Inf(-1)}, // identities into identities
	} {
		if n := clones(m); n != 0 {
			t.Errorf("merge %+v moves no slot and cloned %d pages", m, n)
		}
	}
	if n := clones(HandicapMerge{200, 0, -6}); n != uint64(tr.Height()) {
		t.Errorf("a merge that moves the slot cloned %d pages, want the path's %d", n, tr.Height())
	}
	for _, m := range []HandicapMerge{{200, 0, -6}, {200, 1, 4}, {200, 1, 6}} { // the path is the batch's now
		if n := clones(m); n != 0 {
			t.Errorf("merge %+v on an owned path cloned %d pages", m, n)
		}
	}
	// −0 is below +0 for a min slot: the bits move, so the write happens.
	if err := tr.MergeHandicap(10, 0, 0); err != nil {
		t.Fatal(err)
	}
	if n := clones(HandicapMerge{10, 0, math.Copysign(0, -1)}); n != 0 {
		t.Errorf("−0 into an owned +0 cloned %d pages", n)
	}
	tr.CommitCOW()

	if got := slotsOf(walkLeaves(t, h)); !sameSlots(got, before) {
		t.Errorf("the frozen version's slots moved: %v, were %v", got, before)
	}
	leaf, err := tr.findLeaf(Entry{Key: 200})
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := leaf.handicap(0), leaf.handicap(1); lo != -6 || hi != 6 {
		t.Errorf("live slots (%g, %g), want (-6, 6)", lo, hi)
	}
	leaf.release()
	if leaf, err = tr.findLeaf(Entry{Key: 10}); err != nil {
		t.Fatal(err)
	}
	if got := leaf.handicap(0); !math.Signbit(got) || got != 0 {
		t.Errorf("min(+0, −0) stored as %g (signbit %v), want −0", got, math.Signbit(got))
	}
	leaf.release()
}

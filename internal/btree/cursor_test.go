package btree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"dualcdb/internal/pagestore"
)

func TestVisitLeavesAsc(t *testing.T) {
	tr, _ := newTestTree(t, 256, nil)
	for i := 0; i < 500; i++ {
		_ = tr.Insert(float64(i), uint32(i+1))
	}
	// Sweep upward from 250: must see every key ≥ 250 (plus leading keys in
	// the starting leaf) in order, and never a leaf entirely below 250.
	var seen []float64
	err := tr.VisitLeavesAsc(250, func(lv LeafView) bool {
		for i := 0; i < lv.Len(); i++ {
			seen = append(seen, lv.Key(i))
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 || seen[len(seen)-1] != 499 {
		t.Fatalf("sweep end = %v", seen[len(seen)-1])
	}
	// All keys ≥ 250 present.
	cnt := 0
	for _, k := range seen {
		if k >= 250 {
			cnt++
		}
	}
	if cnt != 250 {
		t.Fatalf("saw %d keys ≥ 250, want 250", cnt)
	}
	if !sort.Float64sAreSorted(seen) {
		t.Fatal("ascending sweep out of order")
	}
}

func TestSweepDesc(t *testing.T) {
	tr, _ := newTestTree(t, 256, nil)
	for i := 0; i < 500; i++ {
		_ = tr.Insert(float64(i), uint32(i+1))
	}
	var seen []float64
	err := tr.Sweep(250, false, nil, nil, func(lv LeafView) bool {
		for i := lv.Len() - 1; i >= 0; i-- {
			seen = append(seen, lv.Key(i))
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen[len(seen)-1] != 0 {
		t.Fatalf("descending sweep must reach the smallest key, got %v", seen[len(seen)-1])
	}
	cnt := 0
	for _, k := range seen {
		if k <= 250 {
			cnt++
		}
	}
	if cnt != 251 {
		t.Fatalf("saw %d keys ≤ 250, want 251", cnt)
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] > seen[i-1] {
			t.Fatal("descending sweep out of order")
		}
	}
}

func TestSweepEarlyStop(t *testing.T) {
	tr, _ := newTestTree(t, 256, nil)
	for i := 0; i < 500; i++ {
		_ = tr.Insert(float64(i), uint32(i+1))
	}
	leaves := 0
	_ = tr.VisitLeavesAsc(0, func(lv LeafView) bool {
		leaves++
		return leaves < 3
	})
	if leaves != 3 {
		t.Fatalf("visited %d leaves, want 3", leaves)
	}
}

func TestHandicapIdentityAndMerge(t *testing.T) {
	tr, _ := newTestTree(t, 256, []SlotKind{MinSlot, MaxSlot})
	for i := 0; i < 100; i++ {
		_ = tr.Insert(float64(i), uint32(i+1))
	}
	// Fresh slots must hold identities.
	err := tr.VisitLeavesAsc(math.Inf(-1), func(lv LeafView) bool {
		if !math.IsInf(lv.Handicap(0), 1) || !math.IsInf(lv.Handicap(1), -1) {
			t.Fatalf("handicaps not identity: (%v, %v)", lv.Handicap(0), lv.Handicap(1))
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	// Merge a low value into the leaf owning key 50.
	if err := tr.MergeHandicap(50, 0, 7.5); err != nil {
		t.Fatal(err)
	}
	if err := tr.MergeHandicap(50, 0, 9.0); err != nil { // min keeps 7.5
		t.Fatal(err)
	}
	if err := tr.MergeHandicap(50, 1, 3.0); err != nil { // max slot
		t.Fatal(err)
	}
	if err := tr.MergeHandicap(50, 1, 2.0); err != nil { // max keeps 3.0
		t.Fatal(err)
	}
	found := false
	_ = tr.VisitLeavesAsc(50, func(lv LeafView) bool {
		for i := 0; i < lv.Len(); i++ {
			if lv.Key(i) == 50 {
				found = true
				if lv.Handicap(0) != 7.5 {
					t.Fatalf("min slot = %v, want 7.5", lv.Handicap(0))
				}
				if lv.Handicap(1) != 3.0 {
					t.Fatalf("max slot = %v, want 3.0", lv.Handicap(1))
				}
			}
		}
		return false // only the first leaf
	})
	if !found {
		t.Fatal("key 50 not in first swept leaf")
	}
}

func TestHandicapSurvivesSplitsConservatively(t *testing.T) {
	// After merging a handicap and then forcing splits, the leaf owning the
	// original route key must still carry a slot value ≤ the merged one
	// (MinSlot: conservative means "not larger than truth").
	tr, _ := newTestTree(t, 256, []SlotKind{MinSlot})
	for i := 0; i < 50; i++ {
		_ = tr.Insert(float64(i), uint32(i+1))
	}
	if err := tr.MergeHandicap(25, 0, 1.25); err != nil {
		t.Fatal(err)
	}
	// Insert plenty more to split the region repeatedly.
	for i := 50; i < 2000; i++ {
		_ = tr.Insert(float64(i%50)+0.5, uint32(i+1))
	}
	var got float64 = math.Inf(1)
	_ = tr.VisitLeavesAsc(25, func(lv LeafView) bool {
		got = lv.Handicap(0)
		return false
	})
	if got > 1.25 {
		t.Fatalf("handicap after splits = %v, must be ≤ 1.25", got)
	}
}

func TestHandicapMergeOnLeafMerge(t *testing.T) {
	tr, _ := newTestTree(t, 256, []SlotKind{MinSlot})
	for i := 0; i < 400; i++ {
		_ = tr.Insert(float64(i), uint32(i+1))
	}
	_ = tr.MergeHandicap(10, 0, 5)
	_ = tr.MergeHandicap(390, 0, 2)
	// Delete almost everything to force merges all the way down.
	for i := 0; i < 399; i++ {
		if _, err := tr.Delete(float64(i), uint32(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The surviving single leaf must hold the conservative min of all
	// merged handicaps.
	_ = tr.VisitLeavesAsc(math.Inf(-1), func(lv LeafView) bool {
		if lv.Handicap(0) > 2 {
			t.Fatalf("merged handicap = %v, want ≤ 2", lv.Handicap(0))
		}
		return false
	})
}

func TestResetHandicaps(t *testing.T) {
	tr, _ := newTestTree(t, 256, []SlotKind{MinSlot, MaxSlot})
	for i := 0; i < 300; i++ {
		_ = tr.Insert(float64(i), uint32(i+1))
	}
	_ = tr.MergeHandicap(0, 0, -100)
	_ = tr.MergeHandicap(299, 1, 100)
	if err := tr.SetHandicaps(nil, nil); err != nil {
		t.Fatal(err)
	}
	_ = tr.VisitLeavesAsc(math.Inf(-1), func(lv LeafView) bool {
		if !math.IsInf(lv.Handicap(0), 1) || !math.IsInf(lv.Handicap(1), -1) {
			t.Fatalf("reset failed: (%v, %v)", lv.Handicap(0), lv.Handicap(1))
		}
		return true
	})
}

func TestSweepIOCost(t *testing.T) {
	// The defining property of the Section 3 structure: a query's leaf
	// sweep costs one page access per visited leaf plus the root-to-leaf
	// descent, plus the parents the cursor crosses into on the way: at
	// least m = minInt+1 leaves hang off each, so they add at most
	// t/m + t/m² + … ≤ t/(m−1) — O(log_B n + t).
	tr, pool := newTestTree(t, 256, nil)
	for i := 0; i < 5000; i++ {
		_ = tr.Insert(float64(i), uint32(i+1))
	}
	if err := pool.EvictAll(); err != nil {
		t.Fatal(err)
	}
	pool.ResetStats()
	leaves := 0
	_ = tr.VisitLeavesAsc(4000, func(lv LeafView) bool {
		leaves++
		return lv.Key(lv.Len()-1) < 4999
	})
	st := pool.Stats()
	maxIO := uint64(leaves + tr.Height() + leaves/tr.minInt())
	if st.PhysicalReads > maxIO {
		t.Fatalf("sweep cost %d reads for %d leaves, height %d", st.PhysicalReads, leaves, tr.Height())
	}
}

// TestSweepsAllocateNothing pins the zero-copy read path: a leaf sweep that
// reads every key, tuple id and handicap through the borrowed LeafView
// allocates nothing — neither out of a warm pool nor when every page is a
// buffer-pool miss served from a file (frames are recycled, not
// reallocated).
func TestSweepsAllocateNothing(t *testing.T) {
	const n = 20000
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Key: float64(i), TID: uint32(i + 1)}
	}
	file, err := pagestore.OpenFileStore(t.TempDir()+"/sweep.db", 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	for _, tc := range []struct {
		name  string
		store pagestore.Store
		cold  bool
	}{
		{"warm", pagestore.NewMemStore(1024), false},
		{"cold", file, true},
	} {
		pool := pagestore.NewPool(tc.store, 1<<12)
		tr, err := New(pool, Config{HandicapKinds: []SlotKind{MinSlot, MaxSlot}})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.BulkLoad(entries); err != nil {
			t.Fatal(err)
		}
		sum, leaves := 0.0, 0
		visit := func(lv LeafView) bool {
			leaves++
			sum += lv.Handicap(0)
			for i, m := 0, lv.Len(); i < m; i++ {
				sum += lv.Key(i) + float64(lv.TID(i))
			}
			return true
		}
		allocs := testing.AllocsPerRun(20, func() {
			if tc.cold {
				if err := pool.EvictAll(); err != nil {
					t.Fatal(err)
				}
			}
			if err := tr.VisitLeavesAsc(n*0.9, visit); err != nil {
				t.Fatal(err)
			}
			if err := tr.Sweep(n*0.1, false, nil, nil, visit); err != nil {
				t.Fatal(err)
			}
		})
		if leaves == 0 || sum == 0 {
			t.Fatalf("%s: sweeps visited nothing", tc.name)
		}
		if allocs != 0 {
			t.Errorf("%s sweeps allocate %.1f objects per run, want 0", tc.name, allocs)
		}
	}
}

// TestFoldHandicapsMatchesMerges sets a few thousand merges through
// SetHandicaps — route keys at both infinities, between keys, on stored keys
// and on every separator's own key — and requires every slot of every leaf to
// carry the bits that one MergeHandicap call per merge leaves in a twin tree
// whose slots start at their identities: in place, over the slots an earlier
// set left (which the walk must overwrite, not combine into), and in a batch
// over shared pages, where the walk clones every page once and the version
// frozen before keeps its slots.
func TestFoldHandicapsMatchesMerges(t *testing.T) {
	kinds := []SlotKind{MinSlot, MinSlot, MaxSlot, MaxSlot}
	build := func() (*Tree, *pagestore.Pool) {
		tr, pool := newTestTree(t, 256, kinds)
		for i := 0; i < 600; i++ {
			if err := tr.Insert(float64(i%200), uint32(i+1)); err != nil { // each key spans entries, some across leaves
				t.Fatal(err)
			}
		}
		return tr, pool
	}
	folded, pool := build()
	leaves := walkLeaves(t, folded)
	if folded.Height() < 3 || len(leaves) < 20 {
		t.Fatalf("height %d with %d leaves: too small to bin over", folded.Height(), len(leaves))
	}

	rng := rand.New(rand.NewSource(22))
	batch := func(n int) []HandicapMerge {
		ms := []HandicapMerge{{math.Inf(-1), 0, 1}, {math.Inf(1), 2, -1}, {math.Inf(1), 1, math.Inf(-1)}, {math.Inf(-1), 3, math.Inf(1)}}
		for _, l := range leaves[1:] {
			ms = append(ms, HandicapMerge{l.lo.Key, rng.Intn(4), rng.NormFloat64()})
		}
		for len(ms) < n {
			key := float64(rng.Intn(202) - 1)
			if rng.Intn(2) == 0 {
				key += rng.Float64()
			}
			ms = append(ms, HandicapMerge{key, rng.Intn(4), math.Round(rng.NormFloat64()*8) / 4}) // ties are common
		}
		return ms
	}
	apply := func(ms []HandicapMerge) {
		t.Helper()
		if err := folded.SetHandicaps(ms, nil); err != nil {
			t.Fatal(err)
		}
		merged, _ := build()
		rng.Shuffle(len(ms), func(i, j int) { ms[i], ms[j] = ms[j], ms[i] }) // the order must not matter
		for _, m := range ms {
			if err := merged.MergeHandicap(m.RouteKey, m.Slot, m.Value); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := slotsOf(walkLeaves(t, folded)), slotsOf(walkLeaves(t, merged)); !sameSlots(got, want) {
			t.Fatalf("set slots %v, merged one by one %v", got, want)
		}
	}

	apply(batch(3000))
	apply(batch(3000)) // over the first set's slots
	frozen := handleOf(folded)
	was := slotsOf(walkLeaves(t, frozen))

	folded.BeginCOW()
	clones := pool.CloneCount()
	apply(batch(500))
	if n, all := pool.CloneCount()-clones, folded.Pages(); n != uint64(all) {
		t.Errorf("a set in a batch cloned %d pages of %d, want each once", n, all)
	}
	clones = pool.CloneCount()
	apply(batch(500))
	if n := pool.CloneCount() - clones; n != 0 {
		t.Errorf("a second set in the same batch cloned %d pages", n)
	}
	folded.CommitCOW()
	if got := slotsOf(walkLeaves(t, frozen)); !sameSlots(got, was) {
		t.Errorf("the frozen version's slots moved under the batch's set")
	}
	if err := folded.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// An empty set resets every slot; a set over a single leaf.
	if err := folded.SetHandicaps(nil, nil); err != nil {
		t.Fatal(err)
	}
	identity := []float64{math.Inf(1), math.Inf(1), math.Inf(-1), math.Inf(-1)}
	for _, got := range slotsOf(walkLeaves(t, folded)) {
		if !sameSlots([][]float64{got}, [][]float64{identity}) {
			t.Fatalf("slots after an empty set: %v", got)
		}
	}
	one, _ := newTestTree(t, 256, kinds)
	if err := one.SetHandicaps([]HandicapMerge{{7, 0, 2}, {-7, 0, 1}, {math.Inf(1), 3, 9}}, nil); err != nil {
		t.Fatal(err)
	}
	if got := slotsOf(walkLeaves(t, one)); !sameSlots(got, [][]float64{{1, math.Inf(1), math.Inf(-1), 9}}) {
		t.Errorf("single leaf after a set: %v", got)
	}
}

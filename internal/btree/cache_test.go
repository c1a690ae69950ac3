package btree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"dualcdb/internal/pagestore"
)

func scanKeys(t *testing.T, tr *Tree) []Entry {
	t.Helper()
	out, err := tr.ScanAll()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestDecodeCacheServesHitsOnRepeatedSweeps(t *testing.T) {
	tr, _ := newTestTree(t, 256, []SlotKind{MinSlot})
	entries := make([]Entry, 500)
	for i := range entries {
		entries[i] = Entry{Key: float64(i), TID: uint32(i + 1)}
	}
	if err := tr.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}
	first := scanKeys(t, tr)
	afterFirst := tr.DecodeCacheStats()
	second := scanKeys(t, tr)
	afterSecond := tr.DecodeCacheStats()
	if len(first) != len(entries) || len(second) != len(entries) {
		t.Fatalf("scan lengths %d/%d, want %d", len(first), len(second), len(entries))
	}
	if afterSecond.Hits <= afterFirst.Hits {
		t.Fatalf("second sweep produced no cache hits: %+v -> %+v", afterFirst, afterSecond)
	}
	if afterSecond.Misses != afterFirst.Misses {
		t.Fatalf("second sweep re-decoded pages: %+v -> %+v", afterFirst, afterSecond)
	}
}

// TestDirtiedPageStaleDecodeNeverServed is the cache-correctness regression
// test: once a page is mutated (MarkDirty bumps its version), a sweep must
// observe the new contents even though the old decode is still cached.
func TestDirtiedPageStaleDecodeNeverServed(t *testing.T) {
	tr, _ := newTestTree(t, 256, []SlotKind{MinSlot})
	entries := make([]Entry, 400)
	for i := range entries {
		entries[i] = Entry{Key: float64(2 * i), TID: uint32(i + 1)}
	}
	if err := tr.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}
	// Populate the cache with every leaf and inner node.
	_ = scanKeys(t, tr)

	// Mutate: new entries landing in the middle of existing leaves, plus a
	// handicap update routed through a cached inner path.
	for i := 0; i < 50; i++ {
		if err := tr.Insert(float64(2*i+1), uint32(10000+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.MergeHandicap(100, 0, -42); err != nil {
		t.Fatal(err)
	}

	got := scanKeys(t, tr)
	if len(got) != 450 {
		t.Fatalf("scan after mutation returned %d entries, want 450 (stale decode served?)", len(got))
	}
	for i := 0; i < 50; i++ {
		ok, err := tr.Contains(float64(2*i+1), uint32(10000+i))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("inserted entry (%d, %d) invisible after caching sweep", 2*i+1, 10000+i)
		}
	}
	seen := math.Inf(1)
	err := tr.VisitLeavesAsc(math.Inf(-1), func(lv LeafView) bool {
		if lv.Handicap(0) < seen {
			seen = lv.Handicap(0)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != -42 {
		t.Fatalf("handicap update invisible through cache: min slot = %v, want -42", seen)
	}
}

func TestDecodeCacheUnderRandomMutation(t *testing.T) {
	cachedPool := pagestore.NewPool(pagestore.NewMemStore(256), 256)
	cached, err := New(cachedPool, Config{HandicapKinds: []SlotKind{MinSlot}})
	if err != nil {
		t.Fatal(err)
	}
	plainPool := pagestore.NewPool(pagestore.NewMemStore(256), 256)
	plain, err := New(plainPool, Config{HandicapKinds: []SlotKind{MinSlot}, NoDecodeCache: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	live := map[Entry]bool{}
	for op := 0; op < 3000; op++ {
		e := Entry{Key: float64(rng.Intn(300)), TID: uint32(rng.Intn(8) + 1)}
		if rng.Intn(3) > 0 {
			errC := cached.Insert(e.Key, e.TID)
			errP := plain.Insert(e.Key, e.TID)
			if (errC == nil) != (errP == nil) {
				t.Fatalf("op %d: insert divergence: cached=%v plain=%v", op, errC, errP)
			}
			if errC == nil {
				live[e] = true
			}
		} else {
			okC, errC := cached.Delete(e.Key, e.TID)
			okP, errP := plain.Delete(e.Key, e.TID)
			if errC != nil || errP != nil || okC != okP {
				t.Fatalf("op %d: delete divergence: (%v,%v) vs (%v,%v)", op, okC, errC, okP, errP)
			}
			delete(live, e)
		}
		// Interleave sweeps so stale decodes would be observed immediately.
		if op%100 == 99 {
			if err := cached.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			a := scanKeys(t, cached)
			b := scanKeys(t, plain)
			if len(a) != len(b) || len(a) != len(live) {
				t.Fatalf("op %d: scan lengths %d/%d, want %d", op, len(a), len(b), len(live))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("op %d: entry %d differs: %v vs %v", op, i, a[i], b[i])
				}
			}
		}
	}
}

// TestDecodeCacheAcrossEviction drives the ABA hazard: mutate a page, let
// the pool evict it (writing it back), then re-read it. The version stamp
// must not regress, so the pre-eviction decode stays dead.
func TestDecodeCacheAcrossEviction(t *testing.T) {
	// A pool far smaller than the tree forces constant eviction.
	pool := pagestore.NewPool(pagestore.NewMemStore(256), 8)
	tr, err := New(pool, Config{HandicapKinds: []SlotKind{MinSlot}})
	if err != nil {
		t.Fatal(err)
	}
	ref := map[Entry]bool{}
	rng := rand.New(rand.NewSource(11))
	for op := 0; op < 2000; op++ {
		e := Entry{Key: float64(rng.Intn(200)), TID: uint32(rng.Intn(4) + 1)}
		if rng.Intn(3) > 0 {
			if err := tr.Insert(e.Key, e.TID); err == nil {
				ref[e] = true
			}
		} else {
			ok, err := tr.Delete(e.Key, e.TID)
			if err != nil {
				t.Fatal(err)
			}
			if ok != ref[e] {
				t.Fatalf("op %d: delete(%v) = %v, ref %v", op, e, ok, ref[e])
			}
			delete(ref, e)
		}
	}
	got := scanKeys(t, tr)
	want := make([]Entry, 0, len(ref))
	for e := range ref {
		want = append(want, e)
	}
	sort.Slice(want, func(i, j int) bool { return want[i].Less(want[j]) })
	if len(got) != len(want) {
		t.Fatalf("scan length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("entry %d: %v, want %v", i, got[i], want[i])
		}
	}
}

func TestDecodeCacheCapacityBound(t *testing.T) {
	pool := pagestore.NewPool(pagestore.NewMemStore(256), 512)
	tr, err := New(pool, Config{DecodeCacheNodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]Entry, 2000)
	for i := range entries {
		entries[i] = Entry{Key: float64(i), TID: 1}
	}
	if err := tr.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 3; pass++ {
		if got := scanKeys(t, tr); len(got) != len(entries) {
			t.Fatalf("pass %d: scan %d entries, want %d", pass, len(got), len(entries))
		}
	}
	st := tr.DecodeCacheStats()
	if st.Evictions == 0 {
		t.Fatalf("tiny cache never evicted: %+v", st)
	}
	if n := len(tr.cache.m); n > 4 {
		t.Fatalf("cache holds %d parses, cap 4", n)
	}
}

// TestDecodeCacheRetainsHotInnerNodes pins the LRU upgrade: under the
// old FIFO ring, streaming more distinct leaves than the cache holds
// evicted the root and inner nodes along with the cold leaves, forcing a
// re-decode of the whole descent path once per round trip. Recency
// ordering refreshes the inner path on every descent, so the root must
// survive an arbitrarily long stream of cold leaves.
func TestDecodeCacheRetainsHotInnerNodes(t *testing.T) {
	pool := pagestore.NewPool(pagestore.NewMemStore(256), 512)
	tr, err := New(pool, Config{DecodeCacheNodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]Entry, 2000)
	for i := range entries {
		entries[i] = Entry{Key: float64(i), TID: uint32(i + 1)}
	}
	if err := tr.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}
	// Point lookups across the whole key space: every descent touches the
	// root and then a mostly-cold leaf, churning far more distinct pages
	// through the 8-slot cache than it can hold.
	for i := 0; i < 2000; i += 3 {
		ok, err := tr.Contains(float64(i), uint32(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("loaded entry %d not found", i)
		}
	}
	st := tr.DecodeCacheStats()
	if st.Evictions == 0 {
		t.Fatalf("stream never evicted, retention is vacuous: %+v", st)
	}
	tr.cache.mu.Lock()
	_, rootCached := tr.cache.m[tr.root]
	tr.cache.mu.Unlock()
	if !rootCached {
		t.Fatalf("root %d evicted despite being touched by every descent: %+v", tr.root, st)
	}
}

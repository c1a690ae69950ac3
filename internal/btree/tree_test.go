package btree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"dualcdb/internal/pagestore"
)

func newTestTree(t *testing.T, pageSize int, kinds []SlotKind) (*Tree, *pagestore.Pool) {
	t.Helper()
	pool := pagestore.NewPool(pagestore.NewMemStore(pageSize), 256)
	tr, err := New(pool, Config{HandicapKinds: kinds})
	if err != nil {
		t.Fatal(err)
	}
	return tr, pool
}

func TestInsertAndScan(t *testing.T) {
	tr, _ := newTestTree(t, 256, nil)
	keys := []float64{5, 1, 9, 3, 7, 2, 8, 4, 6, 0}
	for i, k := range keys {
		if err := tr.Insert(k, uint32(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != len(keys) {
		t.Fatalf("Len = %d", tr.Len())
	}
	got, err := tr.ScanAll()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Less(got[i-1]) {
			t.Fatalf("out of order at %d: %v", i, got)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertDuplicateKeyDifferentTID(t *testing.T) {
	tr, _ := newTestTree(t, 256, nil)
	for tid := uint32(1); tid <= 50; tid++ {
		if err := tr.Insert(3.14, tid); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 50 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.Insert(3.14, 7); err == nil {
		t.Fatal("exact duplicate must be rejected")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestContains(t *testing.T) {
	tr, _ := newTestTree(t, 256, nil)
	_ = tr.Insert(1, 1)
	_ = tr.Insert(2, 2)
	if ok, _ := tr.Contains(1, 1); !ok {
		t.Error("(1,1) must be present")
	}
	if ok, _ := tr.Contains(1, 2); ok {
		t.Error("(1,2) must be absent")
	}
	if ok, _ := tr.Contains(3, 1); ok {
		t.Error("(3,1) must be absent")
	}
}

func TestInsertManyRandomWithInvariants(t *testing.T) {
	tr, _ := newTestTree(t, 256, nil)
	rng := rand.New(rand.NewSource(1))
	n := 3000
	ref := make(map[Entry]bool)
	for i := 0; i < n; i++ {
		e := Entry{Key: math.Floor(rng.Float64()*500) / 10, TID: uint32(i + 1)}
		if err := tr.Insert(e.Key, e.TID); err != nil {
			t.Fatal(err)
		}
		ref[Entry{Key: RoundKey(e.Key), TID: e.TID}] = true
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got, err := tr.ScanAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ref) {
		t.Fatalf("scan %d entries, want %d", len(got), len(ref))
	}
	for _, e := range got {
		if !ref[e] {
			t.Fatalf("unexpected entry %v", e)
		}
	}
	if tr.Height() < 2 {
		t.Fatalf("tree of %d entries should have split (height=%d)", n, tr.Height())
	}
}

func TestDeleteAllRandomOrder(t *testing.T) {
	tr, pool := newTestTree(t, 256, nil)
	rng := rand.New(rand.NewSource(2))
	var entries []Entry
	for i := 0; i < 2000; i++ {
		e := Entry{Key: rng.Float64() * 100, TID: uint32(i + 1)}
		entries = append(entries, e)
		if err := tr.Insert(e.Key, e.TID); err != nil {
			t.Fatal(err)
		}
	}
	rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	for i, e := range entries {
		found, err := tr.Delete(e.Key, e.TID)
		if err != nil {
			t.Fatalf("delete %v: %v", e, err)
		}
		if !found {
			t.Fatalf("entry %v missing at delete", e)
		}
		if i%200 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after %d deletes: %v", i+1, err)
			}
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// All pages except the root leaf must have been freed.
	if got := pool.Store().NumAllocated(); got != 1 {
		t.Fatalf("store still holds %d pages", got)
	}
	if tr.Pages() != 1 {
		t.Fatalf("tree reports %d pages", tr.Pages())
	}
}

func TestDeleteMissing(t *testing.T) {
	tr, _ := newTestTree(t, 256, nil)
	_ = tr.Insert(1, 1)
	found, err := tr.Delete(2, 1)
	if err != nil || found {
		t.Fatalf("Delete missing = %v, %v", found, err)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestMixedInsertDeleteAgainstReference(t *testing.T) {
	tr, _ := newTestTree(t, 256, nil)
	rng := rand.New(rand.NewSource(3))
	ref := make(map[Entry]bool)
	var live []Entry
	for step := 0; step < 6000; step++ {
		if len(live) == 0 || rng.Intn(3) > 0 {
			e := Entry{Key: math.Floor(rng.Float64()*300) / 7, TID: uint32(step + 1)}
			if err := tr.Insert(e.Key, e.TID); err != nil {
				t.Fatal(err)
			}
			ref[Entry{Key: RoundKey(e.Key), TID: e.TID}] = true
			live = append(live, e)
		} else {
			i := rng.Intn(len(live))
			e := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			found, err := tr.Delete(e.Key, e.TID)
			if err != nil || !found {
				t.Fatalf("delete %v: %v %v", e, found, err)
			}
			delete(ref, Entry{Key: RoundKey(e.Key), TID: e.TID})
		}
		if step%500 == 499 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	got, err := tr.ScanAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ref) {
		t.Fatalf("scan %d, ref %d", len(got), len(ref))
	}
	for _, e := range got {
		if !ref[e] {
			t.Fatalf("entry %v not in reference", e)
		}
	}
}

func TestBulkLoadMatchesInserts(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	entries := make([]Entry, 5000)
	for i := range entries {
		entries[i] = Entry{Key: rng.Float64() * 1000, TID: uint32(i + 1)}
	}
	sorted := append([]Entry(nil), entries...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })

	bulk, _ := newTestTree(t, 256, nil)
	if err := bulk.BulkLoad(sorted); err != nil {
		t.Fatal(err)
	}
	if err := bulk.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got, err := bulk.ScanAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(sorted) {
		t.Fatalf("bulk scan %d, want %d", len(got), len(sorted))
	}
	for i := range got {
		if got[i] != sorted[i] {
			t.Fatalf("bulk[%d] = %v, want %v", i, got[i], sorted[i])
		}
	}
	// Bulk-loaded trees must also accept further inserts and deletes.
	if err := bulk.Insert(-1, 9999); err != nil {
		t.Fatal(err)
	}
	if found, err := bulk.Delete(sorted[100].Key, sorted[100].TID); err != nil || !found {
		t.Fatalf("delete after bulk: %v %v", found, err)
	}
	if err := bulk.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBulkLoadEveryCountIsLegal bulk-loads every entry count up to three
// full leaves: no count may leave a leaf under CheckInvariants' minimum fill
// (counts just above one leaf's load used to split into an underfull first
// leaf and a minimal second).
func TestBulkLoadEveryCountIsLegal(t *testing.T) {
	for _, pageSize := range []int{256, 1024} {
		newTree := func() *Tree {
			pool := pagestore.NewPool(pagestore.NewMemStore(pageSize), 64)
			tr, err := New(pool, Config{HandicapKinds: []SlotKind{MinSlot}})
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}
		leafCap := newTree().LeafCapacity()
		for n := 1; n <= 3*leafCap; n++ {
			tr := newTree()
			entries := make([]Entry, n)
			for i := range entries {
				entries[i] = Entry{Key: float64(i), TID: uint32(i + 1)}
			}
			if err := tr.BulkLoad(entries); err != nil {
				t.Fatal(err)
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("page %d, %d entries (leaf capacity %d): %v", pageSize, n, leafCap, err)
			}
		}
	}
}

func TestBulkLoadRejectsNonEmpty(t *testing.T) {
	tr, _ := newTestTree(t, 256, nil)
	_ = tr.Insert(1, 1)
	if err := tr.BulkLoad([]Entry{{Key: 2, TID: 2}}); err != ErrNotEmpty {
		t.Fatalf("want ErrNotEmpty, got %v", err)
	}
}

func TestBulkLoadEmpty(t *testing.T) {
	tr, _ := newTestTree(t, 256, nil)
	if err := tr.BulkLoad(nil); err != nil {
		t.Fatal(err)
	}
	got, _ := tr.ScanAll()
	if len(got) != 0 {
		t.Fatalf("scan = %v", got)
	}
}

func TestInfinityKeys(t *testing.T) {
	// Unbounded tuples store ±Inf surface values (paper footnote 5 — we use
	// IEEE infinities directly).
	tr, _ := newTestTree(t, 256, nil)
	_ = tr.Insert(math.Inf(1), 1)
	_ = tr.Insert(math.Inf(-1), 2)
	_ = tr.Insert(0, 3)
	got, err := tr.ScanAll()
	if err != nil {
		t.Fatal(err)
	}
	if got[0].TID != 2 || got[1].TID != 3 || got[2].TID != 1 {
		t.Fatalf("infinity ordering: %v", got)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPagesAccounting(t *testing.T) {
	tr, pool := newTestTree(t, 256, nil)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		_ = tr.Insert(rng.Float64(), uint32(i+1))
	}
	if tr.Pages() != pool.Store().NumAllocated() {
		t.Fatalf("tree pages %d != store pages %d", tr.Pages(), pool.Store().NumAllocated())
	}
}

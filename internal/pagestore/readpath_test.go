package pagestore

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
)

// fillPattern writes a page-sized deterministic pattern for id.
func fillPattern(buf []byte, id PageID) {
	for i := range buf {
		buf[i] = byte(uint32(id)*31 + uint32(i))
	}
}

// eachStore runs fn against a MemStore and a FileStore.
func eachStore(t *testing.T, fn func(t *testing.T, s Store)) {
	t.Helper()
	t.Run("mem", func(t *testing.T) { fn(t, NewMemStore(128)) })
	t.Run("file", func(t *testing.T) {
		s, err := OpenFileStore(filepath.Join(t.TempDir(), "pages.db"), 128)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		fn(t, s)
	})
}

func TestReadPagesMatchesReadPage(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		const n = 12
		want := make(map[PageID][]byte)
		for i := 0; i < n; i++ {
			id, err := s.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, s.PageSize())
			fillPattern(buf, id)
			if err := s.WritePage(id, buf); err != nil {
				t.Fatal(err)
			}
			want[id] = buf
		}
		// Ascending, descending, and non-contiguous id patterns must all
		// return exactly what per-page ReadPage would.
		patterns := [][]PageID{
			{1, 2, 3, 4, 5},
			{9, 8, 7, 6},
			{2, 5, 6, 7, 3, 12, 11, 10},
			{4},
		}
		for _, ids := range patterns {
			bufs := make([][]byte, len(ids))
			for i := range bufs {
				bufs[i] = make([]byte, s.PageSize())
			}
			got, err := s.ReadPages(ids, bufs)
			if err != nil {
				t.Fatalf("ReadPages(%v): %v", ids, err)
			}
			if got != len(ids) {
				t.Fatalf("ReadPages(%v) = %d, want %d", ids, got, len(ids))
			}
			for i, id := range ids {
				if !bytes.Equal(bufs[i], want[id]) {
					t.Fatalf("ReadPages(%v): page %d contents differ", ids, id)
				}
			}
		}
	})
}

func TestReadPagesStopsAtMissingPage(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		for i := 0; i < 5; i++ {
			if _, err := s.Alloc(); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Free(3); err != nil {
			t.Fatal(err)
		}
		ids := []PageID{1, 2, 3, 4}
		bufs := make([][]byte, len(ids))
		for i := range bufs {
			bufs[i] = make([]byte, s.PageSize())
		}
		got, err := s.ReadPages(ids, bufs)
		if err != nil {
			t.Fatalf("ReadPages: %v", err)
		}
		if got != 2 {
			t.Fatalf("ReadPages stopping at freed page: got %d, want 2", got)
		}
		// A missing first page yields an empty prefix, not an error.
		got, err = s.ReadPages([]PageID{3, 4}, bufs[:2])
		if err != nil || got != 0 {
			t.Fatalf("ReadPages(freed head) = (%d, %v), want (0, nil)", got, err)
		}
	})
}

func TestFaultStoreReadPagesPerPageAccounting(t *testing.T) {
	inner := NewMemStore(64)
	for i := 0; i < 6; i++ {
		if _, err := inner.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	fs := NewFaultStore(inner)
	// Each page of a batch consumes one tick: arming after 3 lets two
	// batched pages through and fails the third.
	fs.FailReadAfter(3)
	ids := []PageID{1, 2, 3, 4, 5}
	bufs := make([][]byte, len(ids))
	for i := range bufs {
		bufs[i] = make([]byte, 64)
	}
	n, err := fs.ReadPages(ids, bufs)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if n != 2 {
		t.Fatalf("n = %d, want 2 pages before the fault", n)
	}
	// Disarmed: the whole batch goes through.
	n, err = fs.ReadPages(ids, bufs)
	if err != nil || n != len(ids) {
		t.Fatalf("disarmed ReadPages = (%d, %v), want (%d, nil)", n, err, len(ids))
	}
}

// pinOnce fetches and releases a page.
func pinOnce(t *testing.T, pool *Pool, id PageID) {
	t.Helper()
	f, err := pool.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	f.Release()
}

func TestMidpointLRUScanResistance(t *testing.T) {
	store := NewMemStore(64)
	const capacity = 16
	pool := NewPool(store, capacity)
	const total = 64
	for i := 0; i < total; i++ {
		if _, err := store.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	// Tenure a few "inner node" pages: a pin after a release moves them
	// into the old region.
	hot := []PageID{1, 2, 3}
	for pass := 0; pass < 2; pass++ {
		for _, id := range hot {
			pinOnce(t, pool, id)
		}
	}
	pool.ResetStats()

	// One long scan over everything else, touching each page once.
	for id := PageID(4); id <= total; id++ {
		f, err := pool.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		f.Release()
	}
	if ev := pool.Stats().OldEvictions; ev != 0 {
		t.Fatalf("scan evicted %d old-region pages; midpoint LRU should drain scans through young", ev)
	}

	// The tenured pages must still be resident: re-pinning them must not
	// read from the store.
	pool.ResetStats()
	for _, id := range hot {
		f, err := pool.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		f.Release()
	}
	if pr := pool.Stats().PhysicalReads; pr != 0 {
		t.Fatalf("hot pages were evicted by the scan: %d physical reads after scan", pr)
	}
}

func TestOldRegionCapDemotesToYoung(t *testing.T) {
	store := NewMemStore(64)
	pool := NewPool(store, 16)
	const total = 40
	for i := 0; i < total; i++ {
		if _, err := store.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	// Tenure more pages than the old region can hold; rebalancing must
	// demote the overflow instead of letting old grow to the whole pool.
	// Two passes over 12 resident pages re-pin each after its release
	// without evicting anything (12 < capacity).
	for pass := 0; pass < 2; pass++ {
		for id := PageID(1); id <= 12; id++ {
			pinOnce(t, pool, id)
		}
	}
	pool.mu.Lock()
	oldLen, youngLen, oldCap := pool.old.len(), pool.young.len(), pool.oldCap
	pool.mu.Unlock()
	if oldLen > oldCap {
		t.Fatalf("old region %d exceeds its cap %d", oldLen, oldCap)
	}
	if youngLen == 0 {
		t.Fatal("expected demoted pages in the young region")
	}
}

// TestRePinAfterReleaseTenures pins the tenure rule: nested pins of a
// page, as a rebalance takes them, leave it young however many there are;
// a pin after its release moves it to the old region.
func TestRePinAfterReleaseTenures(t *testing.T) {
	store := NewMemStore(64)
	for i := 0; i < 8; i++ {
		if _, err := store.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	pool := NewPool(store, 16)
	regions := func() (young, old int) {
		r := pool.Residency()
		return r.Young, r.Old
	}
	frames := make([]*Frame, 100)
	for i := range frames {
		f, err := pool.Get(1)
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = f
	}
	if young, old := regions(); young != 1 || old != 0 {
		t.Fatalf("after %d nested pins: young %d, old %d; want the page young", len(frames), young, old)
	}
	for _, f := range frames {
		f.Release()
	}
	if young, old := regions(); young != 1 || old != 0 {
		t.Fatalf("after the releases: young %d, old %d; want the page young", young, old)
	}
	pinOnce(t, pool, 1)
	if young, old := regions(); young != 0 || old != 1 {
		t.Fatalf("after pin, release, pin: young %d, old %d; want the page old", young, old)
	}
}

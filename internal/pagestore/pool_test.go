package pagestore

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestPoolCapacityIsExact holds a pool to max(capacity, 8) frames through
// both constructors: that many fresh pages pinned and released evict
// nothing, and one page more evicts exactly one.
func TestPoolCapacityIsExact(t *testing.T) {
	constructors := map[string]func(Store, int) *Pool{
		"NewPool":            NewPool,
		"NewPoolWithOptions": func(s Store, c int) *Pool { return NewPoolWithOptions(s, PoolOptions{Capacity: c}) },
	}
	for name, newPool := range constructors {
		for _, c := range []int{1, 8, 12, 64, 100} {
			want := max(c, 8)
			p := newPool(NewMemStore(64), c)
			if got := p.Residency().Capacity; got != want {
				t.Errorf("%s(%d): capacity %d, want %d", name, c, got, want)
			}
			// evictionsAfter pins and releases n more fresh pages.
			evictionsAfter := func(n int) uint64 {
				for range n {
					f, err := p.NewPage()
					if err != nil {
						t.Fatal(err)
					}
					f.Release()
				}
				st := p.Stats()
				return st.YoungEvictions + st.OldEvictions
			}
			if got := evictionsAfter(want); got != 0 {
				t.Errorf("%s(%d): %d pages evicted %d, want 0", name, c, want, got)
			}
			if got := evictionsAfter(1); got != 1 {
				t.Errorf("%s(%d): %d pages evicted %d, want 1", name, c, want+1, got)
			}
		}
	}
}

func TestPoolPageLifecycle(t *testing.T) {
	// Each page keeps its bytes along its whole path: written through
	// NewPage, dropped via EvictAll, read back through Get, freed via
	// FreePage.
	s := NewMemStore(32)
	p := NewPool(s, 256)
	shadow := make(map[PageID]byte)
	for i := 0; i < 200; i++ {
		f, err := p.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		b := byte(i)
		f.Data()[0] = b
		f.MarkDirty()
		shadow[f.ID()] = b
		f.Release()
	}
	if err := p.EvictAll(); err != nil {
		t.Fatal(err)
	}
	for id, b := range shadow {
		f, err := p.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if f.Data()[0] != b {
			t.Fatalf("page %d: got %d, want %d", id, f.Data()[0], b)
		}
		f.Release()
	}
	for id := range shadow {
		// Frames are unpinned again; freeing must succeed for every page.
		if err := p.FreePage(id); err != nil {
			t.Fatalf("FreePage(%d): %v", id, err)
		}
	}
	if s.NumAllocated() != 0 {
		t.Fatalf("allocated = %d after freeing all", s.NumAllocated())
	}
}

func TestPoolStatsTotals(t *testing.T) {
	s := NewMemStore(64)
	p := NewPool(s, 1024)
	var ids []PageID
	for i := 0; i < 50; i++ {
		f, _ := p.NewPage()
		ids = append(ids, f.ID())
		f.Release()
	}
	if err := p.EvictAll(); err != nil {
		t.Fatal(err)
	}
	p.ResetStats()
	for _, id := range ids {
		f, err := p.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		f.Release()
	}
	st := p.Stats()
	if st.LogicalReads != 50 || st.PhysicalReads != 50 {
		t.Fatalf("stats after cold pass = %+v, want 50/50", st)
	}
}

func TestGetTrackedExactAttribution(t *testing.T) {
	// Two trackers interleave Gets over a cold pool: each miss must be
	// charged to exactly the tracker that triggered it, and the sum of the
	// per-tracker Physical counts must equal the pool's PhysicalReads.
	s := NewMemStore(64)
	p := NewPool(s, 1024)
	var ids []PageID
	for i := 0; i < 40; i++ {
		f, _ := p.NewPage()
		ids = append(ids, f.ID())
		f.Release()
	}
	if err := p.EvictAll(); err != nil {
		t.Fatal(err)
	}
	p.ResetStats()
	var a, b ReadCounter
	for i, id := range ids {
		rc := &a
		if i%2 == 1 {
			rc = &b
		}
		f, err := p.GetTracked(id, rc)
		if err != nil {
			t.Fatal(err)
		}
		f.Release()
	}
	// Re-read everything through tracker a: all hits, no new misses.
	for _, id := range ids {
		f, err := p.GetTracked(id, &a)
		if err != nil {
			t.Fatal(err)
		}
		f.Release()
	}
	if got := a.Physical.Load() + b.Physical.Load(); got != p.Stats().PhysicalReads {
		t.Fatalf("tracked misses %d != pool misses %d", got, p.Stats().PhysicalReads)
	}
	if a.Physical.Load() != 20 || b.Physical.Load() != 20 {
		t.Fatalf("misses a=%d b=%d, want 20 each", a.Physical.Load(), b.Physical.Load())
	}
	if a.Logical.Load() != 60 || b.Logical.Load() != 20 {
		t.Fatalf("logical a=%d b=%d, want 60/20", a.Logical.Load(), b.Logical.Load())
	}
}

func TestPoolConcurrentReaders(t *testing.T) {
	// Hammer the pool from many goroutines with mixed reads and writes to
	// disjoint byte ranges; run under -race in CI. Each goroutine owns
	// offset g, so concurrent mutation of one page is well-defined. One
	// more goroutine empties the pool beside them, as a cold-cache reset
	// beside running queries does: EvictAll skips the frames they hold
	// pinned, and the frame table and freelist it edits stay the lock's.
	s := NewMemStore(64)
	p := NewPool(s, 64) // small: forces eviction traffic
	var ids []PageID
	for i := 0; i < 128; i++ {
		f, err := p.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, f.ID())
		f.Release()
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			rc := &ReadCounter{}
			for step := 0; step < 2000; step++ {
				id := ids[rng.Intn(len(ids))]
				f, err := p.GetTracked(id, rc)
				if err != nil {
					errc <- err
					return
				}
				if rng.Intn(4) == 0 {
					f.Data()[g] = byte(step)
					f.MarkDirty()
				}
				f.Release()
			}
		}(g)
	}
	stop := make(chan struct{})
	evicted := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				evicted <- nil
				return
			default:
			}
			if err := p.EvictAll(); err != nil {
				evicted <- err
				return
			}
			if r := p.Residency(); r.Frames > r.Capacity || r.Pinned > goroutines {
				evicted <- fmt.Errorf("residency beside the readers: %+v", r)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	if err := <-evicted; err != nil {
		t.Fatal(err)
	}
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	// Every page must still read back through the store without error.
	buf := make([]byte, 64)
	for _, id := range ids {
		if err := s.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPoolRandomizedAgainstShadow(t *testing.T) {
	// TestPoolRandomizedAgainstDirectStore at a larger scale: 60 pages
	// through 32 frames, so eviction traffic stays heavy while both LRU
	// regions fill, must always return the last written bytes.
	s := NewMemStore(32)
	p := NewPool(s, 32)
	rng := rand.New(rand.NewSource(99))
	shadow := make(map[PageID][]byte)
	var ids []PageID
	for i := 0; i < 60; i++ {
		f, err := p.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, f.ID())
		shadow[f.ID()] = make([]byte, 32)
		f.Release()
	}
	for step := 0; step < 4000; step++ {
		id := ids[rng.Intn(len(ids))]
		f, err := p.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(2) == 0 {
			b := byte(rng.Intn(256))
			off := rng.Intn(32)
			f.Data()[off] = b
			shadow[id][off] = b
			f.MarkDirty()
		} else if !bytes.Equal(f.Data(), shadow[id]) {
			t.Fatalf("step %d: page %d diverged", step, id)
		}
		f.Release()
	}
}

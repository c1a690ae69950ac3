package pagestore

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"
)

// TestPoolFrameTable drives the frame table, a slice indexed by page id,
// through a FileStore of a few thousand pages under an 8-frame pool: every
// page reads back its own bytes through a frame of its own id, an id the
// store frees and hands out again gets a fresh, zeroed frame, and Flush,
// EvictAll and Residency see exactly the resident frames across the holes
// that ids far apart leave in the table.
func TestPoolFrameTable(t *testing.T) {
	const pages, pageSize = 3000, 64
	s, err := OpenFileStore(filepath.Join(t.TempDir(), "pages.db"), pageSize)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p := NewPool(s, 8)
	for range pages {
		f, err := p.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		fillPattern(f.Data(), f.ID())
		f.Release()
	}
	if r := p.Residency(); r.Frames != 8 || r.Pinned != 0 {
		t.Fatalf("after %d pages: %+v, want 8 frames, none pinned", pages, r)
	}

	want := make([]byte, pageSize)
	get := func(id PageID) *Frame {
		t.Helper()
		f, err := p.Get(id)
		if err != nil {
			t.Fatalf("Get(%d): %v", id, err)
		}
		fillPattern(want, id)
		if f.ID() != id || !bytes.Equal(f.Data(), want) {
			t.Fatalf("Get(%d): frame of page %d holding %x, want %x", id, f.ID(), f.Data(), want)
		}
		return f
	}
	rng := rand.New(rand.NewSource(3))
	for range 4 * pages {
		get(PageID(1 + rng.Intn(pages))).Release()
	}

	// A freed id comes back from the store (last in, first out) in a frame
	// that holds zeros, not the bytes of its previous life.
	const reused = PageID(pages / 2)
	old := get(reused)
	installs := old.Installs()
	old.Release()
	if err := p.FreePage(reused); err != nil {
		t.Fatal(err)
	}
	f, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	if f.ID() != reused {
		t.Fatalf("NewPage after FreePage(%d) got page %d: the store reuses the freed id", reused, f.ID())
	}
	if f == old && f.Installs() == installs {
		t.Fatal("the reused id kept its old frame without a new install")
	}
	if !bytes.Equal(f.Data(), make([]byte, pageSize)) {
		t.Fatalf("reused page %d reads %x, want zeros", reused, f.Data())
	}
	fillPattern(f.Data(), f.ID())
	f.Release()

	// Holes: after an EvictAll, three pages far apart are resident and dirty,
	// one of them pinned.
	if err := p.EvictAll(); err != nil {
		t.Fatal(err)
	}
	ids := []PageID{1, pages / 3, pages}
	held := make([]*Frame, len(ids))
	for i, id := range ids {
		held[i] = get(id)
		held[i].Data()[0] ^= 0xFF
		held[i].MarkDirty()
	}
	held[0].Release()
	held[1].Release()
	if r := p.Residency(); r.Frames != 3 || r.Pinned != 1 {
		t.Fatalf("three pages across the table, one pinned: %+v", r)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, pageSize)
	for _, id := range ids {
		if err := s.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		fillPattern(want, id)
		want[0] ^= 0xFF
		if !bytes.Equal(buf, want) {
			t.Fatalf("Flush did not write page %d back: the store holds %x, want %x", id, buf, want)
		}
	}
	if err := p.EvictAll(); err != nil {
		t.Fatal(err)
	}
	if r := p.Residency(); r.Frames != 1 || r.Pinned != 1 {
		t.Fatalf("EvictAll with page %d pinned: %+v, want it alone resident", ids[2], r)
	}
	held[2].Release()
	if err := p.EvictAll(); err != nil {
		t.Fatal(err)
	}
	if r := p.Residency(); r.Frames != 0 {
		t.Fatalf("EvictAll with nothing pinned: %+v, want no frame", r)
	}
}

// TestDeferFreesRefusesPinnedPage: a batch the watermark has passed is freed
// in one pass, but a page of it still pinned is refused — counted in
// ReclaimFailures and queued again — while the others are freed; the next
// reclamation frees it once it is released. DeferFrees keeps no reference to
// its argument: a batch queued behind a snapshot frees the ids it was given
// even after the caller reuses the slice.
func TestDeferFreesRefusesPinnedPage(t *testing.T) {
	s := NewMemStore(64)
	p := NewPool(s, 8)
	newPages := func(n int) []PageID {
		ids := make([]PageID, n)
		for i := range ids {
			f, err := p.NewPage()
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = f.ID()
			f.Release()
		}
		return ids
	}
	ids := newPages(4)
	pinned, err := p.Get(ids[2])
	if err != nil {
		t.Fatal(err)
	}
	if freed := p.DeferFrees(1, ids); freed != 3 {
		t.Fatalf("DeferFrees freed %d pages of a batch with one pinned, want 3", freed)
	}
	c := p.SnapshotCensus()
	if c.ReclaimFailures != 1 || c.DeferredPages != 1 || c.Reclaimed != 3 {
		t.Fatalf("census after the refusal: %+v, want 1 failure, 1 page queued, 3 reclaimed", c)
	}
	if n := s.NumAllocated(); n != 1 {
		t.Fatalf("the store holds %d pages, want only the pinned one", n)
	}
	if st := p.Stats(); st.Frees != 3 {
		t.Fatalf("Stats.Frees = %d, want 3", st.Frees)
	}
	pinned.Release()
	p.PinVersion(7)
	p.UnpinVersion(7) // reclaims what the watermark allows: the re-queued page
	if c := p.SnapshotCensus(); c.DeferredPages != 0 || c.Reclaimed != 4 || c.ReclaimFailures != 1 {
		t.Fatalf("census after the retry: %+v, want nothing queued, 4 reclaimed", c)
	}
	if n := s.NumAllocated(); n != 0 {
		t.Fatalf("the store holds %d pages after the retry, want 0", n)
	}

	ids = newPages(3)
	p.PinVersion(1)
	if freed := p.DeferFrees(2, ids); freed != 0 {
		t.Fatalf("DeferFrees freed %d pages behind a snapshot, want 0", freed)
	}
	kept := append([]PageID(nil), ids...)
	clear(ids) // the caller reuses its buffer
	p.UnpinVersion(1)
	if c := p.SnapshotCensus(); c.DeferredPages != 0 || c.Reclaimed != 7 {
		t.Fatalf("census after the snapshot released: %+v, want nothing queued, 7 reclaimed", c)
	}
	for _, id := range kept {
		if err := s.ReadPage(id, make([]byte, 64)); err == nil {
			t.Fatalf("page %d of the queued batch still reads after its release", id)
		}
	}
}

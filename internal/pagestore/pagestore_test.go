package pagestore

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"
)

func stores(t *testing.T, pageSize int) map[string]Store {
	t.Helper()
	fs, err := OpenFileStore(filepath.Join(t.TempDir(), "pages.db"), pageSize)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return map[string]Store{
		"mem":  NewMemStore(pageSize),
		"file": fs,
	}
}

func TestStoreAllocReadWrite(t *testing.T) {
	for name, s := range stores(t, 128) {
		t.Run(name, func(t *testing.T) {
			id1, err := s.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			id2, err := s.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			if id1 == id2 || id1 == InvalidPage {
				t.Fatalf("ids %d %d", id1, id2)
			}
			buf := make([]byte, 128)
			for i := range buf {
				buf[i] = byte(i)
			}
			if err := s.WritePage(id1, buf); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, 128)
			if err := s.ReadPage(id1, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, got) {
				t.Fatal("read != written")
			}
			// A fresh page must be zeroed.
			if err := s.ReadPage(id2, got); err != nil {
				t.Fatal(err)
			}
			for _, b := range got {
				if b != 0 {
					t.Fatal("fresh page not zeroed")
				}
			}
			if s.NumAllocated() != 2 {
				t.Fatalf("NumAllocated = %d", s.NumAllocated())
			}
		})
	}
}

func TestStoreFreeAndReuse(t *testing.T) {
	for name, s := range stores(t, 64) {
		t.Run(name, func(t *testing.T) {
			id, _ := s.Alloc()
			if err := s.Free(id); err != nil {
				t.Fatal(err)
			}
			if err := s.Free(id); err == nil {
				t.Fatal("double free must fail")
			}
			buf := make([]byte, 64)
			if err := s.ReadPage(id, buf); err == nil {
				t.Fatal("reading freed page must fail")
			}
			id2, _ := s.Alloc()
			if id2 != id {
				t.Fatalf("freed page not reused: %d vs %d", id2, id)
			}
			// Reused pages are zeroed.
			if err := s.ReadPage(id2, buf); err != nil {
				t.Fatal(err)
			}
			for _, b := range buf {
				if b != 0 {
					t.Fatal("reused page not zeroed")
				}
			}
		})
	}
}

func TestPoolBasicReadWrite(t *testing.T) {
	s := NewMemStore(64)
	p := NewPool(s, 16)
	f, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	id := f.ID()
	copy(f.Data(), "hello")
	f.MarkDirty()
	f.Release()
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	// Read through a different pool to force a physical read.
	p2 := NewPool(s, 16)
	f2, err := p2.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(f2.Data()[:5]) != "hello" {
		t.Fatalf("data = %q", f2.Data()[:5])
	}
	f2.Release()
	if st := p2.Stats(); st.PhysicalReads != 1 || st.LogicalReads != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPoolCacheHit(t *testing.T) {
	s := NewMemStore(64)
	p := NewPool(s, 16)
	f, _ := p.NewPage()
	id := f.ID()
	f.Release()
	p.ResetStats()
	for i := 0; i < 5; i++ {
		g, err := p.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		g.Release()
	}
	st := p.Stats()
	if st.LogicalReads != 5 {
		t.Fatalf("logical = %d", st.LogicalReads)
	}
	if st.PhysicalReads != 0 {
		t.Fatalf("physical = %d (page was already cached)", st.PhysicalReads)
	}
}

func TestPoolEvictionWritesBackDirty(t *testing.T) {
	s := NewMemStore(64)
	p := NewPool(s, 8) // minimum capacity
	f, _ := p.NewPage()
	id := f.ID()
	copy(f.Data(), "dirty")
	f.MarkDirty()
	f.Release()
	// Fill the pool to force eviction of the first page.
	for i := 0; i < 10; i++ {
		g, err := p.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		g.Release()
	}
	buf := make([]byte, 64)
	if err := s.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:5]) != "dirty" {
		t.Fatal("evicted dirty page not written back")
	}
}

// TestPoolRecycledFrames: NewPage and ClonePage hand out frames the pool
// recycled from evicted pages, so NewPage must clear the old occupant's
// bytes and ClonePage must overwrite every one with its source's. The clone
// takes over the caller's pin on its source, so the caller releases only the
// clone.
func TestPoolRecycledFrames(t *testing.T) {
	s := NewMemStore(64)
	p := NewPool(s, 8)
	// fill dirties every frame of the pool with non-zero bytes and evicts
	// them all, so the freelist holds eight frames of garbage.
	fill := func(b byte) {
		t.Helper()
		for i := 0; i < 8; i++ {
			f, err := p.NewPage()
			if err != nil {
				t.Fatal(err)
			}
			for j := range f.Data() {
				f.Data()[j] = b
			}
			f.MarkDirty()
			f.Release()
		}
		if err := p.EvictAll(); err != nil {
			t.Fatal(err)
		}
	}
	fill(0xA5)
	f, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	for j, b := range f.Data() {
		if b != 0 {
			t.Fatalf("NewPage over a recycled frame: byte %d is %#x, want 0", j, b)
		}
	}
	for j := range f.Data() {
		f.Data()[j] = byte(j)
	}
	f.Release()

	src, err := p.Get(f.ID())
	if err != nil {
		t.Fatal(err)
	}
	fill(0x5A)
	clones := p.CloneCount()
	c, err := p.ClonePage(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.ID() == src.ID() || string(c.Data()) != string(src.Data()) {
		t.Fatalf("clone %d of page %d: bytes %x, want %x", c.ID(), src.ID(), c.Data(), src.Data())
	}
	if p.CloneCount() != clones+1 {
		t.Fatalf("CloneCount grew by %d, want 1", p.CloneCount()-clones)
	}
	// The clone took over src's pin: releasing the clone alone leaves
	// nothing pinned.
	c.Release()
	if r := p.Residency(); r.Pinned != 0 {
		t.Fatalf("%d frames pinned after the clone was released", r.Pinned)
	}
}

func TestPoolAllPinned(t *testing.T) {
	s := NewMemStore(64)
	p := NewPool(s, 8)
	var frames []*Frame
	for i := 0; i < 8; i++ {
		f, err := p.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	if _, err := p.NewPage(); err != ErrPoolFull {
		t.Fatalf("want ErrPoolFull, got %v", err)
	}
	frames[0].Release()
	if _, err := p.NewPage(); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

func TestPoolEvictAllColdCache(t *testing.T) {
	s := NewMemStore(64)
	p := NewPool(s, 64)
	var ids []PageID
	for i := 0; i < 10; i++ {
		f, _ := p.NewPage()
		ids = append(ids, f.ID())
		f.Release()
	}
	if err := p.EvictAll(); err != nil {
		t.Fatal(err)
	}
	p.ResetStats()
	// Touch 5 distinct pages, some twice: PhysicalReads must be 5.
	for _, i := range []int{0, 1, 2, 2, 3, 4, 0} {
		f, err := p.Get(ids[i])
		if err != nil {
			t.Fatal(err)
		}
		f.Release()
	}
	if st := p.Stats(); st.PhysicalReads != 5 {
		t.Fatalf("physical reads = %d, want 5", st.PhysicalReads)
	}
}

func TestPoolFreePage(t *testing.T) {
	s := NewMemStore(64)
	p := NewPool(s, 16)
	f, _ := p.NewPage()
	id := f.ID()
	if err := p.FreePage(id); err == nil {
		t.Fatal("freeing a pinned page must fail")
	}
	f.Release()
	if err := p.FreePage(id); err != nil {
		t.Fatal(err)
	}
	if s.NumAllocated() != 0 {
		t.Fatalf("allocated = %d", s.NumAllocated())
	}
}

func TestPoolRandomizedAgainstDirectStore(t *testing.T) {
	// Property: reading through a (small, eviction-heavy) pool always
	// returns the last bytes written through the pool.
	s := NewMemStore(32)
	p := NewPool(s, 8)
	rng := rand.New(rand.NewSource(77))
	shadow := make(map[PageID][]byte)
	var ids []PageID
	for i := 0; i < 20; i++ {
		f, err := p.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, f.ID())
		shadow[f.ID()] = make([]byte, 32)
		f.Release()
	}
	for step := 0; step < 2000; step++ {
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

func TestFrameOverReleasePanics(t *testing.T) {
	s := NewMemStore(64)
	p := NewPool(s, 8)
	f, _ := p.NewPage()
	f.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("over-release must panic")
		}
	}()
	f.Release()
}

// fileSize is the byte length of a FileStore's file, or -1 for another
// store.
func fileSize(t *testing.T, s Store) int64 {
	t.Helper()
	fs, ok := s.(*FileStore)
	if !ok {
		return -1
	}
	fi, err := fs.f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestStoreAllocWritesNothing: a fresh or reused id reads zero, through
// ReadPage and ReadPages, with no device write in between, and a FileStore's
// Alloc leaves the file's size as it was.
func TestStoreAllocWritesNothing(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		buf := make([]byte, s.PageSize())
		for range 3 {
			id, err := s.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			fillPattern(buf, id)
			if err := s.WritePage(id, buf); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Free(2); err != nil {
			t.Fatal(err)
		}
		size := fileSize(t, s)
		reused, err := s.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := s.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if reused != 2 || fresh != 4 {
			t.Fatalf("Alloc gave %d and %d, want the freed 2 and a fresh 4", reused, fresh)
		}
		if got := fileSize(t, s); got != size {
			t.Fatalf("Alloc changed the file size %d → %d", size, got)
		}
		ids := []PageID{1, 2, 3, 4}
		bufs := make([][]byte, len(ids))
		for i := range bufs {
			bufs[i] = make([]byte, s.PageSize())
			fillPattern(bufs[i], 99) // not what any page holds
		}
		if n, err := s.ReadPages(ids, bufs); n != len(ids) || err != nil {
			t.Fatalf("ReadPages = (%d, %v), want (%d, nil)", n, err, len(ids))
		}
		want := make([]byte, s.PageSize())
		for i, id := range ids {
			clear(want)
			if id == 1 || id == 3 {
				fillPattern(want, id)
			}
			if !bytes.Equal(bufs[i], want) {
				t.Fatalf("ReadPages: page %d holds the wrong bytes", id)
			}
			fillPattern(buf, 99)
			if err := s.ReadPage(id, buf); err != nil || !bytes.Equal(buf, want) {
				t.Fatalf("ReadPage(%d): %v or the wrong bytes", id, err)
			}
		}
	})
}

// TestStoreHoldsFreedSavedPages: a page live at the last Checkpoint that is
// freed is not handed out again, and keeps its bytes on the device, until
// the next Checkpoint; a page allocated since is reusable at once.
func TestStoreHoldsFreedSavedPages(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		buf := make([]byte, s.PageSize())
		for range 3 {
			id, err := s.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			fillPattern(buf, id)
			if err := s.WritePage(id, buf); err != nil {
				t.Fatal(err)
			}
		}
		s.Checkpoint()
		if err := s.Free(2); err != nil {
			t.Fatal(err)
		}
		if err := s.Free(2); err == nil {
			t.Fatal("double free of a held page must fail")
		}
		// A held page still reads what was saved, alone and inside a batch.
		want := make([]byte, s.PageSize())
		fillPattern(want, 2)
		if err := s.ReadPage(2, buf); err != nil || !bytes.Equal(buf, want) {
			t.Fatalf("held page 2 does not read its saved bytes: %v", err)
		}
		bufs := [][]byte{make([]byte, s.PageSize()), make([]byte, s.PageSize()), make([]byte, s.PageSize())}
		if n, err := s.ReadPages([]PageID{1, 2, 3}, bufs); n != 3 || err != nil {
			t.Fatalf("ReadPages over held page 2 read %d pages, %v; want 3", n, err)
		}
		for i, b := range bufs {
			fillPattern(want, PageID(i+1))
			if !bytes.Equal(b, want) {
				t.Fatalf("ReadPages: page %d does not read its saved bytes", i+1)
			}
		}
		id, err := s.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if id != 4 {
			t.Fatalf("Alloc after freeing saved page 2 gave %d, want 4", id)
		}
		if err := s.Free(id); err != nil {
			t.Fatal(err)
		}
		if err := s.ReadPage(id, buf); !errors.Is(err, ErrPageNotFound) {
			t.Fatalf("reading freed unsaved page %d: %v, want ErrPageNotFound", id, err)
		}
		if again, _ := s.Alloc(); again != 4 {
			t.Fatalf("an unsaved freed page is reused at once: got %d, want 4", again)
		}
		if fs, ok := s.(*FileStore); ok {
			fillPattern(buf, 99)
			if _, err := fs.f.ReadAt(buf, int64(1)*int64(s.PageSize())); err != nil {
				t.Fatal(err)
			}
			fillPattern(want, 2)
			if !bytes.Equal(buf, want) {
				t.Fatal("the held page's bytes changed on the device")
			}
		}
		s.Checkpoint()
		if id, _ := s.Alloc(); id != 2 {
			t.Fatalf("Alloc after the next Checkpoint gave %d, want the released 2", id)
		}
		if err := s.ReadPage(2, buf); err != nil || !bytes.Equal(buf, make([]byte, s.PageSize())) {
			t.Fatalf("released page 2 does not read zero: %v", err)
		}
	})
}

// TestOpenExistingFileStoreSavesEveryPage: every page of a reopened file is
// saved, so freeing one does not make its id reusable before a Checkpoint.
func TestOpenExistingFileStoreSavesEveryPage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	s, err := OpenFileStore(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	for range 3 {
		id, _ := s.Alloc()
		if err := s.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if s, err = OpenExistingFileStore(path, 128); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Free(1); err != nil {
		t.Fatal(err)
	}
	if id, _ := s.Alloc(); id != 4 {
		t.Fatalf("Alloc after freeing page 1 of a reopened file gave %d, want 4", id)
	}
}

// TestMemStoreSteadyStateAllocatesNothing: once a freed page's buffer is
// recycled, an Alloc, first write and Free cycle allocates nothing.
func TestMemStoreSteadyStateAllocatesNothing(t *testing.T) {
	s := NewMemStore(128)
	buf := make([]byte, 128)
	cycle := func() {
		id, _ := s.Alloc()
		if err := s.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
		if err := s.Free(id); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("Alloc/WritePage/Free allocates %v times a cycle, want 0", n)
	}
}

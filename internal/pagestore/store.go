// Package pagestore provides the secondary-storage substrate shared by the
// index structures: fixed-size pages, an in-memory and a file-backed page
// device, and a buffer pool — one segmented LRU of a young and an old
// region under one lock — with I/O accounting.
//
// The paper's experiments (Section 5) measure page accesses with a page
// size of 1024 bytes; DefaultPageSize follows that. All index structures
// (the dual-representation B⁺-trees and the R⁺-tree baseline) allocate
// through the same pool so their I/O and space numbers are directly
// comparable.
package pagestore

import (
	"errors"
	"fmt"
	"os"
	"sync"
)

// DefaultPageSize is the page size used by the paper's experiments.
const DefaultPageSize = 1024

// PageID identifies a page within a store. 0 is never a valid page.
type PageID uint32

// InvalidPage is the zero PageID, used as a nil pointer on disk.
const InvalidPage PageID = 0

// ErrPageNotFound is returned when reading a page that was never
// allocated or has been freed.
var ErrPageNotFound = errors.New("pagestore: page not found")

// Store is a raw page device.
//
// A page reads zero from its Alloc until its first WritePage, and the
// device is not written for that: a page that is allocated and freed again
// before anything writes it never reaches the medium. The pages live at the
// last Checkpoint are the saved set — for a database file, every page its
// last saved catalog reaches among them. A saved page that is freed is held
// back, off the free list, until the next Checkpoint, so no later write
// lands on the version the device last saved.
type Store interface {
	// PageSize returns the fixed page size in bytes.
	PageSize() int
	// Alloc reserves a page and returns its id. The page reads zero until
	// it is first written; Alloc itself writes nothing to the device.
	Alloc() (PageID, error)
	// Free releases a page. A page of the saved set is reused only after
	// the next Checkpoint, any other page at once.
	Free(PageID) error
	// ReadPage fills buf (of PageSize bytes) with the page contents.
	ReadPage(id PageID, buf []byte) error
	// ReadPages fills bufs[i] (each of PageSize bytes) with the contents
	// of page ids[i] for a maximal prefix of readable pages and returns
	// how many were filled. A missing or freed page ends the prefix
	// without error; an allocated page not yet written reads zero and does
	// not. An I/O failure returns the count read so far and the error.
	// Implementations coalesce runs of consecutive ids (ascending or
	// descending) into single device reads where the medium allows.
	ReadPages(ids []PageID, bufs [][]byte) (int, error)
	// WritePage persists buf (of PageSize bytes) as the page contents.
	WritePage(id PageID, buf []byte) error
	// Checkpoint makes the live pages the saved set and releases the saved
	// pages freed since the previous Checkpoint for reuse. Call it once
	// everything the new saved version reaches is written and the pages it
	// no longer reaches are freed.
	Checkpoint()
	// NumAllocated returns the number of live pages — the structure's
	// space occupancy in pages (Figure 10's metric).
	NumAllocated() int
	// Close releases resources.
	Close() error
}

// bitset is a set of page ids, one bit an id.
type bitset []uint64

func (b bitset) has(id PageID) bool {
	w := int(id / 64)
	return w < len(b) && b[w]&(1<<(id%64)) != 0
}

func (b *bitset) set(id PageID) {
	w := int(id / 64)
	for len(*b) <= w {
		*b = append(*b, 0)
	}
	(*b)[w] |= 1 << (id % 64)
}

func (b bitset) clear(id PageID) {
	if w := int(id / 64); w < len(b) {
		b[w] &^= 1 << (id % 64)
	}
}

// pageTable is the id bookkeeping both stores share: live holds the
// allocated ids, unwritten those not written since their Alloc (a freed id
// keeps its bit) and saved the ids live at the last Checkpoint. Freed ids are reused last in,
// first out; held are the saved ids freed since the last Checkpoint. The
// readable ids are the live and the saved ones: a held id is not reused
// before the next Checkpoint, so it still reads what was saved.
type pageTable struct {
	next      PageID
	n         int
	live      bitset
	unwritten bitset
	saved     bitset
	free      []PageID
	held      []PageID
}

// newPageTable returns a table whose ids 1..n are live, written and saved.
func newPageTable(n PageID) pageTable {
	t := pageTable{next: n + 1, n: int(n)}
	for id := PageID(1); id <= n; id++ {
		t.live.set(id)
	}
	t.saved = append(bitset(nil), t.live...)
	return t
}

func (t *pageTable) alloc() PageID {
	var id PageID
	if n := len(t.free); n > 0 {
		id = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		id = t.next
		t.next++
	}
	t.live.set(id)
	t.unwritten.set(id)
	t.n++
	return id
}

// release ends the life of a live id: a saved one is held until the next
// checkpoint, any other goes on the free list.
func (t *pageTable) release(id PageID) error {
	if !t.live.has(id) {
		return fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	t.live.clear(id)
	t.n--
	if t.saved.has(id) {
		t.held = append(t.held, id)
	} else {
		t.free = append(t.free, id)
	}
	return nil
}

// readable reports whether id reads: it is live, or saved and held.
func (t *pageTable) readable(id PageID) bool { return t.live.has(id) || t.saved.has(id) }

func (t *pageTable) checkpoint() {
	t.saved = append(t.saved[:0], t.live...)
	t.free = append(t.free, t.held...)
	t.held = t.held[:0]
}

// MemStore is an in-memory page device. It is the default substrate for
// experiments: "disk" I/O is still counted by the buffer pool, but runs
// are fast and reproducible. A page gets a buffer on its first write, and
// a freed page's buffer serves the next first write.
type MemStore struct {
	mu       sync.Mutex
	pageSize int
	ids      pageTable
	pages    [][]byte // by id; nil while the page is unwritten or free
	spare    [][]byte // buffers of freed pages
}

// NewMemStore creates an in-memory store with the given page size
// (DefaultPageSize if ≤ 0).
func NewMemStore(pageSize int) *MemStore {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	return &MemStore{pageSize: pageSize, ids: newPageTable(0)}
}

// PageSize returns the page size in bytes.
func (s *MemStore) PageSize() int { return s.pageSize }

// Alloc reserves a page that reads zero until it is written.
func (s *MemStore) Alloc() (PageID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ids.alloc(), nil
}

// Free releases a page and keeps its buffer for a later first write; a
// saved page keeps it, and reads, until the next Checkpoint.
func (s *MemStore) Free(id PageID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.ids.release(id); err != nil {
		return err
	}
	if !s.ids.saved.has(id) {
		s.recycle(id)
	}
	return nil
}

// recycle moves page id's buffer, if it has one, to spare. Callers hold
// s.mu.
func (s *MemStore) recycle(id PageID) {
	if int(id) < len(s.pages) && s.pages[id] != nil {
		s.spare = append(s.spare, s.pages[id])
		s.pages[id] = nil
	}
}

// readLocked copies page id into buf and reports whether the page is
// readable. Callers hold s.mu.
func (s *MemStore) readLocked(id PageID, buf []byte) bool {
	if !s.ids.readable(id) {
		return false
	}
	if s.ids.unwritten.has(id) {
		clear(buf[:s.pageSize])
	} else {
		copy(buf, s.pages[id])
	}
	return true
}

// ReadPage copies the page contents into buf.
func (s *MemStore) ReadPage(id PageID, buf []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.readLocked(id, buf) {
		return fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	return nil
}

// ReadPages copies each page into its buffer, stopping without error at
// the first missing page.
func (s *MemStore) ReadPages(ids []PageID, bufs [][]byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, id := range ids {
		if !s.readLocked(id, bufs[i]) {
			return i, nil
		}
	}
	return len(ids), nil
}

// WritePage stores buf as the page contents.
func (s *MemStore) WritePage(id PageID, buf []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ids.live.has(id) {
		return fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	if int(id) >= len(s.pages) {
		s.pages = append(s.pages, make([][]byte, int(id)+1-len(s.pages))...)
	}
	p := s.pages[id]
	if p == nil {
		if n := len(s.spare); n > 0 {
			p, s.spare = s.spare[n-1], s.spare[:n-1]
		} else {
			p = make([]byte, s.pageSize)
		}
		s.pages[id] = p
	}
	copy(p, buf)
	s.ids.unwritten.clear(id)
	return nil
}

// Checkpoint makes the live pages the saved set and releases the held ones
// and their buffers.
func (s *MemStore) Checkpoint() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range s.ids.held {
		s.recycle(id)
	}
	s.ids.checkpoint()
}

// NumAllocated returns the number of live pages.
func (s *MemStore) NumAllocated() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ids.n
}

// Close is a no-op for the in-memory store.
func (s *MemStore) Close() error { return nil }

// FileStore is a file-backed page device. Page n lives at byte offset
// (n−1)·pageSize. Freed pages are tracked in memory and reused by Alloc;
// the file is not compacted. A page allocated and never written has no
// bytes in the file, or only those of an earlier occupant, and reads zero.
type FileStore struct {
	mu       sync.Mutex
	f        *os.File
	pageSize int
	ids      pageTable
}

// OpenFileStore creates (truncating) a file-backed store at path.
func OpenFileStore(path string, pageSize int) (*FileStore, error) {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pagestore: open %s: %w", path, err)
	}
	return &FileStore{f: f, pageSize: pageSize, ids: newPageTable(0)}, nil
}

// OpenExistingFileStore reopens a file-backed store written earlier. Every
// page within the file is live and saved: the ones the file's catalog
// reaches are kept from reuse until the next Checkpoint, so the version the
// file holds survives the commits made before the next save. The free list
// does not survive restarts, so pages freed before the previous shutdown
// leak until the database is rebuilt (documented trade-off — the
// structures above never reference freed pages, so correctness is
// unaffected).
func OpenExistingFileStore(path string, pageSize int) (*FileStore, error) {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pagestore: open %s: %w", path, err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("pagestore: stat %s: %w", path, err)
	}
	if fi.Size()%int64(pageSize) != 0 {
		f.Close()
		return nil, fmt.Errorf("pagestore: %s size %d is not a multiple of the page size %d",
			path, fi.Size(), pageSize)
	}
	n := PageID(fi.Size() / int64(pageSize))
	return &FileStore{f: f, pageSize: pageSize, ids: newPageTable(n)}, nil
}

// PageSize returns the page size in bytes.
func (s *FileStore) PageSize() int { return s.pageSize }

// Alloc reserves a page that reads zero until it is written. The file is
// not touched.
func (s *FileStore) Alloc() (PageID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ids.alloc(), nil
}

// Free releases a page for reuse.
func (s *FileStore) Free(id PageID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ids.release(id)
}

// ReadPage fills buf with the page contents.
func (s *FileStore) ReadPage(id PageID, buf []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ids.readable(id) {
		return fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	if s.ids.unwritten.has(id) {
		clear(buf[:s.pageSize])
		return nil
	}
	if _, err := s.f.ReadAt(buf[:s.pageSize], int64(id-1)*int64(s.pageSize)); err != nil {
		return fmt.Errorf("pagestore: read page %d: %w", id, err)
	}
	return nil
}

// ReadPages reads a maximal live prefix of the pages, coalescing each run
// of consecutive written ids — ascending or descending, as leaf sweeps in
// either direction produce — into a single ReadAt over the covered byte
// range, so a batch over a bulk-loaded leaf chain costs one syscall instead
// of one per page. An unwritten page reads zero without a syscall.
func (s *FileStore) ReadPages(ids []PageID, bufs [][]byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for n < len(ids) && s.ids.readable(ids[n]) {
		n++
	}
	written := func(i int) bool { return !s.ids.unwritten.has(ids[i]) }
	for start := 0; start < n; {
		if !written(start) {
			clear(bufs[start][:s.pageSize])
			start++
			continue
		}
		end := start + 1
		step := int64(0)
		if end < n && written(end) {
			switch int64(ids[end]) - int64(ids[start]) {
			case 1:
				step = 1
			case -1:
				step = -1
			}
		}
		if step != 0 {
			for end < n && written(end) && int64(ids[end])-int64(ids[end-1]) == step {
				end++
			}
		}
		lo := ids[start]
		if step < 0 {
			lo = ids[end-1]
		}
		run := make([]byte, (end-start)*s.pageSize)
		if _, err := s.f.ReadAt(run, int64(lo-1)*int64(s.pageSize)); err != nil {
			// Retry the run page by page so a partial failure still yields
			// the maximal readable prefix.
			for i := start; i < end; i++ {
				off := int64(ids[i]-1) * int64(s.pageSize)
				if _, err := s.f.ReadAt(bufs[i][:s.pageSize], off); err != nil {
					return i, fmt.Errorf("pagestore: read page %d: %w", ids[i], err)
				}
			}
			start = end
			continue
		}
		for i := start; i < end; i++ {
			off := int(int64(ids[i])-int64(lo)) * s.pageSize
			copy(bufs[i], run[off:off+s.pageSize])
		}
		start = end
	}
	return n, nil
}

// WritePage persists buf as the page contents.
func (s *FileStore) WritePage(id PageID, buf []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ids.live.has(id) {
		return fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	if _, err := s.f.WriteAt(buf[:s.pageSize], int64(id-1)*int64(s.pageSize)); err != nil {
		return fmt.Errorf("pagestore: write page %d: %w", id, err)
	}
	s.ids.unwritten.clear(id)
	return nil
}

// Checkpoint makes the live pages the saved set and releases the held ones.
func (s *FileStore) Checkpoint() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ids.checkpoint()
}

// NumAllocated returns the number of live pages.
func (s *FileStore) NumAllocated() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ids.n
}

// Close closes the backing file.
func (s *FileStore) Close() error { return s.f.Close() }

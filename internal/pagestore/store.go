// Package pagestore provides the secondary-storage substrate shared by the
// index structures: fixed-size pages, an in-memory and a file-backed page
// device, and an LRU buffer pool with I/O accounting.
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
type Store interface {
	// PageSize returns the fixed page size in bytes.
	PageSize() int
	// Alloc reserves a zeroed page and returns its id.
	Alloc() (PageID, error)
	// Free releases a page for reuse.
	Free(PageID) error
	// ReadPage fills buf (of PageSize bytes) with the page contents.
	ReadPage(id PageID, buf []byte) error
	// ReadPages fills bufs[i] (each of PageSize bytes) with the contents
	// of page ids[i] for a maximal prefix of readable pages and returns
	// how many were filled. A missing or freed page ends the prefix
	// without error; an I/O failure returns the count read so far and the
	// error. Implementations coalesce runs of consecutive ids (ascending
	// or descending) into single device reads where the medium allows.
	ReadPages(ids []PageID, bufs [][]byte) (int, error)
	// WritePage persists buf (of PageSize bytes) as the page contents.
	WritePage(id PageID, buf []byte) error
	// NumAllocated returns the number of live pages — the structure's
	// space occupancy in pages (Figure 10's metric).
	NumAllocated() int
	// Close releases resources.
	Close() error
}

// MemStore is an in-memory page device. It is the default substrate for
// experiments: "disk" I/O is still counted by the buffer pool, but runs
// are fast and reproducible.
type MemStore struct {
	mu       sync.Mutex
	pageSize int
	pages    map[PageID][]byte
	free     []PageID
	next     PageID
}

// NewMemStore creates an in-memory store with the given page size
// (DefaultPageSize if ≤ 0).
func NewMemStore(pageSize int) *MemStore {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	return &MemStore{pageSize: pageSize, pages: make(map[PageID][]byte), next: 1}
}

// PageSize returns the page size in bytes.
func (s *MemStore) PageSize() int { return s.pageSize }

// Alloc reserves a zeroed page.
func (s *MemStore) Alloc() (PageID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var id PageID
	if n := len(s.free); n > 0 {
		id = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		id = s.next
		s.next++
	}
	s.pages[id] = make([]byte, s.pageSize)
	return id, nil
}

// Free releases a page.
func (s *MemStore) Free(id PageID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.pages[id]; !ok {
		return ErrPageNotFound
	}
	delete(s.pages, id)
	s.free = append(s.free, id)
	return nil
}

// ReadPage copies the page contents into buf.
func (s *MemStore) ReadPage(id PageID, buf []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pages[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	copy(buf, p)
	return nil
}

// ReadPages copies each page into its buffer, stopping without error at
// the first missing page.
func (s *MemStore) ReadPages(ids []PageID, bufs [][]byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, id := range ids {
		p, ok := s.pages[id]
		if !ok {
			return i, nil
		}
		copy(bufs[i], p)
	}
	return len(ids), nil
}

// WritePage stores buf as the page contents.
func (s *MemStore) WritePage(id PageID, buf []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pages[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	copy(p, buf)
	return nil
}

// NumAllocated returns the number of live pages.
func (s *MemStore) NumAllocated() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pages)
}

// Close is a no-op for the in-memory store.
func (s *MemStore) Close() error { return nil }

// FileStore is a file-backed page device. Page n lives at byte offset
// (n−1)·pageSize. Freed pages are tracked in memory and reused by Alloc;
// the file is not compacted.
type FileStore struct {
	mu       sync.Mutex
	f        *os.File
	pageSize int
	next     PageID
	free     []PageID
	live     map[PageID]bool
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
	return &FileStore{f: f, pageSize: pageSize, next: 1, live: make(map[PageID]bool)}, nil
}

// OpenExistingFileStore reopens a file-backed store written earlier. Every
// page within the file is considered live: the in-memory free list does
// not survive restarts, so pages freed before the previous shutdown leak
// until the database is rebuilt (documented trade-off — the structures
// above never reference freed pages, so correctness is unaffected).
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
	live := make(map[PageID]bool, n)
	for id := PageID(1); id <= n; id++ {
		live[id] = true
	}
	return &FileStore{f: f, pageSize: pageSize, next: n + 1, live: live}, nil
}

// PageSize returns the page size in bytes.
func (s *FileStore) PageSize() int { return s.pageSize }

// Alloc reserves a zeroed page.
func (s *FileStore) Alloc() (PageID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var id PageID
	if n := len(s.free); n > 0 {
		id = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		id = s.next
		s.next++
	}
	zero := make([]byte, s.pageSize)
	if _, err := s.f.WriteAt(zero, int64(id-1)*int64(s.pageSize)); err != nil {
		return InvalidPage, fmt.Errorf("pagestore: alloc page %d: %w", id, err)
	}
	s.live[id] = true
	return id, nil
}

// Free releases a page for reuse.
func (s *FileStore) Free(id PageID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.live[id] {
		return ErrPageNotFound
	}
	delete(s.live, id)
	s.free = append(s.free, id)
	return nil
}

// ReadPage fills buf with the page contents.
func (s *FileStore) ReadPage(id PageID, buf []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.live[id] {
		return fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	if _, err := s.f.ReadAt(buf[:s.pageSize], int64(id-1)*int64(s.pageSize)); err != nil {
		return fmt.Errorf("pagestore: read page %d: %w", id, err)
	}
	return nil
}

// ReadPages reads a maximal live prefix of the pages, coalescing each run
// of consecutive ids — ascending or descending, as leaf sweeps in either
// direction produce — into a single ReadAt over the covered byte range,
// so a batch over a bulk-loaded leaf chain costs one syscall instead of
// one per page.
func (s *FileStore) ReadPages(ids []PageID, bufs [][]byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for n < len(ids) && s.live[ids[n]] {
		n++
	}
	for start := 0; start < n; {
		end := start + 1
		step := int64(0)
		if end < n {
			switch int64(ids[end]) - int64(ids[start]) {
			case 1:
				step = 1
			case -1:
				step = -1
			}
		}
		if step != 0 {
			for end < n && int64(ids[end])-int64(ids[end-1]) == step {
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
	if !s.live[id] {
		return fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	if _, err := s.f.WriteAt(buf[:s.pageSize], int64(id-1)*int64(s.pageSize)); err != nil {
		return fmt.Errorf("pagestore: write page %d: %w", id, err)
	}
	return nil
}

// NumAllocated returns the number of live pages.
func (s *FileStore) NumAllocated() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.live)
}

// Close closes the backing file.
func (s *FileStore) Close() error { return s.f.Close() }

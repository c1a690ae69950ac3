package pagestore

import (
	"errors"
	"sync"
)

// ErrInjected is the error produced by a FaultStore's tripped operations.
var ErrInjected = errors.New("pagestore: injected fault")

// FaultStore wraps a Store and fails operations on demand — a test aid for
// verifying that the structures above the pager surface I/O errors instead
// of corrupting themselves or panicking.
//
// Counters are decremented on each matching operation; the operation fails
// when its counter hits zero (so FailReadAfter(3) lets two reads succeed
// and fails the third). Zero-valued counters never trip.
type FaultStore struct {
	mu    sync.Mutex
	inner Store

	readAfter  int
	writeAfter int
	allocAfter int
	freeAfter  int
}

// NewFaultStore wraps inner.
func NewFaultStore(inner Store) *FaultStore { return &FaultStore{inner: inner} }

// FailReadAfter arms the read fault: the n-th subsequent read fails.
func (s *FaultStore) FailReadAfter(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.readAfter = n
}

// FailWriteAfter arms the write fault.
func (s *FaultStore) FailWriteAfter(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writeAfter = n
}

// FailAllocAfter arms the allocation fault.
func (s *FaultStore) FailAllocAfter(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.allocAfter = n
}

// FailFreeAfter arms the free fault.
func (s *FaultStore) FailFreeAfter(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.freeAfter = n
}

// Disarm clears all pending faults.
func (s *FaultStore) Disarm() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.readAfter, s.writeAfter, s.allocAfter, s.freeAfter = 0, 0, 0, 0
}

func trip(counter *int) bool {
	if *counter == 0 {
		return false
	}
	*counter--
	return *counter == 0
}

// PageSize returns the inner page size.
func (s *FaultStore) PageSize() int { return s.inner.PageSize() }

// Alloc forwards to the inner store unless the alloc fault trips.
func (s *FaultStore) Alloc() (PageID, error) {
	s.mu.Lock()
	tripped := trip(&s.allocAfter)
	s.mu.Unlock()
	if tripped {
		return InvalidPage, ErrInjected
	}
	return s.inner.Alloc()
}

// Free forwards to the inner store unless the free fault trips; a tripped
// free leaves the page allocated.
func (s *FaultStore) Free(id PageID) error {
	s.mu.Lock()
	tripped := trip(&s.freeAfter)
	s.mu.Unlock()
	if tripped {
		return ErrInjected
	}
	return s.inner.Free(id)
}

// ReadPage forwards unless the read fault trips.
func (s *FaultStore) ReadPage(id PageID, buf []byte) error {
	s.mu.Lock()
	tripped := trip(&s.readAfter)
	s.mu.Unlock()
	if tripped {
		return ErrInjected
	}
	return s.inner.ReadPage(id, buf)
}

// ReadPages forwards to the inner store with per-page fault accounting:
// each page in the batch consumes one tick of the read-fault counter, and
// a trip truncates the batch at the failing page, returning the pages
// read before it together with ErrInjected.
func (s *FaultStore) ReadPages(ids []PageID, bufs [][]byte) (int, error) {
	s.mu.Lock()
	allowed := len(ids)
	tripped := false
	for i := range ids {
		if trip(&s.readAfter) {
			allowed, tripped = i, true
			break
		}
	}
	s.mu.Unlock()
	n, err := s.inner.ReadPages(ids[:allowed], bufs[:allowed])
	if err != nil {
		return n, err
	}
	if tripped {
		return n, ErrInjected
	}
	return n, nil
}

// WritePage forwards unless the write fault trips.
func (s *FaultStore) WritePage(id PageID, buf []byte) error {
	s.mu.Lock()
	tripped := trip(&s.writeAfter)
	s.mu.Unlock()
	if tripped {
		return ErrInjected
	}
	return s.inner.WritePage(id, buf)
}

// Checkpoint forwards to the inner store.
func (s *FaultStore) Checkpoint() { s.inner.Checkpoint() }

// NumAllocated forwards to the inner store.
func (s *FaultStore) NumAllocated() int { return s.inner.NumAllocated() }

// Close forwards to the inner store.
func (s *FaultStore) Close() error { return s.inner.Close() }

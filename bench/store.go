package main

import (
	"sync/atomic"
	"time"

	"dualcdb/internal/pagestore"
)

// timedStore wraps a page device with call counts and busy time per call
// kind — the pagestore.store.* layer metrics and the store children of the
// traced spans. It is handed to the engine through Options.Store on traced
// runs only; untraced runs use the bare device. While off it only forwards,
// so that the untraced passes of a traced run pay one atomic load per call.
type timedStore struct {
	pagestore.Store
	on atomic.Bool

	readCalls, readPages, readNs atomic.Uint64
	writeCalls, writeNs          atomic.Uint64
	allocCalls, allocNs          atomic.Uint64
	freeCalls, freeNs            atomic.Uint64
}

func (s *timedStore) ReadPage(id pagestore.PageID, buf []byte) error {
	if !s.on.Load() {
		return s.Store.ReadPage(id, buf)
	}
	t0 := time.Now()
	err := s.Store.ReadPage(id, buf)
	s.readNs.Add(uint64(time.Since(t0)))
	s.readCalls.Add(1)
	if err == nil {
		s.readPages.Add(1)
	}
	return err
}

func (s *timedStore) ReadPages(ids []pagestore.PageID, bufs [][]byte) (int, error) {
	if !s.on.Load() {
		return s.Store.ReadPages(ids, bufs)
	}
	t0 := time.Now()
	n, err := s.Store.ReadPages(ids, bufs)
	s.readNs.Add(uint64(time.Since(t0)))
	s.readCalls.Add(1)
	s.readPages.Add(uint64(n))
	return n, err
}

func (s *timedStore) WritePage(id pagestore.PageID, buf []byte) error {
	if !s.on.Load() {
		return s.Store.WritePage(id, buf)
	}
	t0 := time.Now()
	err := s.Store.WritePage(id, buf)
	s.writeNs.Add(uint64(time.Since(t0)))
	s.writeCalls.Add(1)
	return err
}

func (s *timedStore) Alloc() (pagestore.PageID, error) {
	if !s.on.Load() {
		return s.Store.Alloc()
	}
	t0 := time.Now()
	id, err := s.Store.Alloc()
	s.allocNs.Add(uint64(time.Since(t0)))
	s.allocCalls.Add(1)
	return id, err
}

func (s *timedStore) Free(id pagestore.PageID) error {
	if !s.on.Load() {
		return s.Store.Free(id)
	}
	t0 := time.Now()
	err := s.Store.Free(id)
	s.freeNs.Add(uint64(time.Since(t0)))
	s.freeCalls.Add(1)
	return err
}

// storeCounts is a reading of the wrapper's counters; the difference of two
// readings is the device activity of the span between them.
type storeCounts struct {
	ReadCalls  uint64 `json:"read_calls,omitempty"`
	ReadPages  uint64 `json:"read_pages,omitempty"`
	ReadNs     uint64 `json:"read_ns,omitempty"`
	WriteCalls uint64 `json:"write_calls,omitempty"`
	WriteNs    uint64 `json:"write_ns,omitempty"`
	AllocCalls uint64 `json:"alloc_calls,omitempty"`
	AllocNs    uint64 `json:"alloc_ns,omitempty"`
	FreeCalls  uint64 `json:"free_calls,omitempty"`
	FreeNs     uint64 `json:"free_ns,omitempty"`
}

func (s *timedStore) counts() storeCounts {
	if s == nil {
		return storeCounts{}
	}
	return storeCounts{
		ReadCalls: s.readCalls.Load(), ReadPages: s.readPages.Load(), ReadNs: s.readNs.Load(),
		WriteCalls: s.writeCalls.Load(), WriteNs: s.writeNs.Load(),
		AllocCalls: s.allocCalls.Load(), AllocNs: s.allocNs.Load(),
		FreeCalls: s.freeCalls.Load(), FreeNs: s.freeNs.Load(),
	}
}

func (a storeCounts) sub(b storeCounts) storeCounts {
	return storeCounts{
		ReadCalls: a.ReadCalls - b.ReadCalls, ReadPages: a.ReadPages - b.ReadPages, ReadNs: a.ReadNs - b.ReadNs,
		WriteCalls: a.WriteCalls - b.WriteCalls, WriteNs: a.WriteNs - b.WriteNs,
		AllocCalls: a.AllocCalls - b.AllocCalls, AllocNs: a.AllocNs - b.AllocNs,
		FreeCalls: a.FreeCalls - b.FreeCalls, FreeNs: a.FreeNs - b.FreeNs,
	}
}

func (a storeCounts) busyNs() uint64 { return a.ReadNs + a.WriteNs + a.AllocNs + a.FreeNs }

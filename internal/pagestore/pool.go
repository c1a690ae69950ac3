package pagestore

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Stats accumulates the buffer pool's I/O counters. PhysicalReads is the
// number the paper's figures plot: page transfers from secondary storage,
// which with a per-query cold cache equals the number of distinct pages a
// query touches.
type Stats struct {
	LogicalReads  uint64 // Get calls
	PhysicalReads uint64 // pages fetched from the store (cache misses)
	Writes        uint64 // pages written back to the store
	FlushWrites   uint64 // of Writes, those Flush and EvictAll made
	Allocs        uint64 // pages allocated
	Frees         uint64 // pages freed
	Clones        uint64 // copy-on-write page clones (ClonePage calls)

	// YoungEvictions and OldEvictions split evictions by the LRU region the
	// victim came from. A leaf sweep over a working set larger than the
	// pool drains through the young region; OldEvictions staying flat
	// during sweeps is the scan-resistance signal.
	YoungEvictions uint64
	OldEvictions   uint64
}

// ReadCounter is a per-caller I/O counter threaded through GetTracked so a
// single query can account exactly for the page reads it caused, without
// the before/after delta on the shared pool counters that is racy when
// several queries run concurrently.
type ReadCounter struct {
	Logical  atomic.Uint64 // Get calls attributed to this counter
	Physical atomic.Uint64 // cache misses this counter's Gets triggered
}

// Pool is a buffer pool over a Store: one mutex guards one frame table, one
// segmented LRU and one frame freelist, so every page competes for the same
// capacity frames whatever the core count. The I/O counters are atomics, so
// Stats reads them without the lock. Frames are pinned while in use;
// unpinned dirty frames are written back on eviction or Flush.
//
// The frame table is a slice indexed by page id: both stores hand out dense
// ids (a freed id is reused before a new one is minted), so the table holds
// one pointer per id the store has handed out — 8 B a page of the store —
// and a page event indexes it instead of hashing. Each page event (a Get, a
// Release, a clone, a free or a whole reclaimed batch) takes the pool lock
// once.
//
// Eviction is a segmented LRU of two intrusive lists of resident frames:
// young holds pages not pinned again since they were read in, old holds
// pages that were. A page enters the young region when it is read in and
// moves to the old region when it is pinned again after a release, so a
// single long leaf sweep, which touches each leaf once, cannot evict the
// inner nodes that every query re-touches. A frame stays in place while
// pinned and moves to the front of its list on release, so the steady-state
// pin/release cycle allocates nothing. Victims come from the first unpinned
// frame off the young tail, then the old tail; the old region is capped at
// oldCap frames, beyond which its tail is demoted back to young.
//
// Evicted frames (struct and page buffer alike) are recycled through the
// freelist, so a steady-state miss/evict cycle — the cold-sweep read path —
// allocates nothing. Recycling is what makes the view borrow discipline
// strict: a []byte view over a frame's buffer observes the *next*
// occupant's bytes once the frame is released and reused, which is why
// views must never outlive their frame's Release (checked at runtime by the
// btree view guard, which every btree and core test runs with).
type Pool struct {
	store    Store
	capacity int
	oldCap   int

	mu sync.Mutex
	// frames is the frame table by page id, nil where the page is not
	// resident; it grows on install. resident counts its non-nil slots.
	frames   []*Frame // guarded by mu
	resident int      // guarded by mu
	// young/old order most-recently released frames first.
	young frameList // guarded by mu
	old   frameList // guarded by mu
	// free recycles evicted frames (chained through lruNext) together with
	// their page buffers; bounded by capacity.
	free  *Frame // guarded by mu
	freeN int    // guarded by mu

	// MVCC snapshot bookkeeping (snapshot.go): reference counts per pinned
	// commit version and pages superseded by copy-on-write commits, held
	// back until the min-referenced-version watermark passes their death
	// version. Guarded by snapMu; snapMu is never taken while mu is held.
	snapMu       sync.Mutex
	snapRefs     map[uint64]int  // guarded by snapMu
	deferred     []deferredFrees // guarded by snapMu
	reclaimFails atomic.Uint64
	// clones/deferredTotal/reclaimed are the write-path attribution
	// counters: pages cloned by ClonePage, pages ever handed to
	// DeferFrees, and deferred pages actually freed by watermark
	// reclamation. Clones happen only under the index's single-writer
	// commit lock, so a delta of CloneCount across a commit stage is
	// exact per-stage attribution.
	clones        atomic.Uint64
	deferredTotal atomic.Uint64
	reclaimed     atomic.Uint64

	logicalReads   atomic.Uint64
	physicalReads  atomic.Uint64
	writes         atomic.Uint64
	evictWrites    atomic.Uint64 // the writes ensureRoomLocked made
	allocs         atomic.Uint64
	frees          atomic.Uint64
	youngEvictions atomic.Uint64
	oldEvictions   atomic.Uint64
}

// Frame region tags for the segmented LRU.
const (
	regionYoung = iota
	regionOld
)

// Frame is a pinned page in the buffer pool. Callers must Release it when
// done and MarkDirty after mutating Data. After Release the frame — and
// its Data buffer — may be recycled for a different page at any time, so
// no slice of Data may be retained past the Release.
type Frame struct {
	pool *Pool
	id   PageID
	data []byte

	// pins and installs are written only under pool.mu but read lock-free
	// by Pinned and Installs, the runtime anchors of the view borrow guard.
	pins     atomic.Int32
	installs atomic.Uint32

	lruPrev, lruNext *Frame // intrusive young/old list links; guarded by pool.mu
	region           uint8  // guarded by pool.mu

	// dirty is atomic because MarkDirty is called while pinned without the
	// pool lock, potentially concurrently with another pinner of the same
	// frame.
	dirty atomic.Bool
}

// frameList is an intrusive doubly linked list of frames: front is the
// most-recently released end, back the eviction end. Intrusive links keep
// the pin/release/evict cycle free of container allocations.
type frameList struct {
	head, tail *Frame
	n          int
}

func (l *frameList) pushFront(f *Frame) {
	f.lruPrev = nil
	f.lruNext = l.head
	if l.head != nil {
		l.head.lruPrev = f
	} else {
		l.tail = f
	}
	l.head = f
	l.n++
}

func (l *frameList) remove(f *Frame) {
	if f.lruPrev != nil {
		f.lruPrev.lruNext = f.lruNext
	} else {
		l.head = f.lruNext
	}
	if f.lruNext != nil {
		f.lruNext.lruPrev = f.lruPrev
	} else {
		l.tail = f.lruPrev
	}
	f.lruPrev, f.lruNext = nil, nil
	l.n--
}

func (l *frameList) moveToFront(f *Frame) {
	if l.head == f {
		return
	}
	l.remove(f)
	l.pushFront(f)
}

func (l *frameList) back() *Frame { return l.tail }
func (l *frameList) len() int     { return l.n }

// ErrPoolFull is returned when every frame is pinned and a new page is
// requested.
var ErrPoolFull = errors.New("pagestore: all buffer frames pinned")

// The old region holds at most oldNum/oldDen of the pool's frames, the
// share the recorded read-path ablation chose (EXPERIMENTS.md).
const (
	oldNum = 5
	oldDen = 8
)

// NewPool creates a buffer pool of max(capacity, 8) frames.
func NewPool(store Store, capacity int) *Pool {
	capacity = max(capacity, 8)
	return &Pool{
		store:    store,
		capacity: capacity,
		oldCap:   capacity * oldNum / oldDen, // capacity ≥ 8, so 1 ≤ oldCap < capacity
		snapRefs: make(map[uint64]int),
	}
}

// PoolOptions is the argument of NewPoolWithOptions.
//
// Deprecated: call NewPool.
type PoolOptions struct {
	Capacity int // frames, as NewPool's capacity
}

// NewPoolWithOptions is NewPool(store, opt.Capacity).
//
// Deprecated: call NewPool.
func NewPoolWithOptions(store Store, opt PoolOptions) *Pool { return NewPool(store, opt.Capacity) }

// Store returns the underlying page device.
func (p *Pool) Store() Store { return p.store }

// PageSize returns the page size in bytes.
func (p *Pool) PageSize() int { return p.store.PageSize() }

// Get pins the page with the given id, reading it from the store on a miss.
func (p *Pool) Get(id PageID) (*Frame, error) { return p.GetTracked(id, nil) }

// GetTracked is Get with per-caller accounting: when rc is non-nil, its
// Logical counter is bumped for the call and its Physical counter for a
// cache miss this call itself served. The attribution is exact — a miss is
// charged to exactly the caller whose Get read the page from the store —
// which makes per-query I/O numbers stable under concurrency.
func (p *Pool) GetTracked(id PageID, rc *ReadCounter) (*Frame, error) {
	if id == InvalidPage {
		return nil, errors.New("pagestore: Get(InvalidPage)")
	}
	p.logicalReads.Add(1)
	if rc != nil {
		rc.Logical.Add(1)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if f := p.frameLocked(id); f != nil {
		p.pinLocked(f)
		return f, nil
	}
	if err := p.ensureRoomLocked(); err != nil {
		return nil, err
	}
	f := p.takeFrameLocked()
	if err := p.store.ReadPage(id, f.data); err != nil {
		p.recycleLocked(f)
		return nil, err
	}
	p.physicalReads.Add(1)
	if rc != nil {
		rc.Physical.Add(1)
	}
	p.installLocked(f, id, false)
	return f, nil
}

// frameLocked returns the resident frame of page id, or nil. Callers hold
// p.mu.
func (p *Pool) frameLocked(id PageID) *Frame {
	if int(id) < len(p.frames) {
		return p.frames[id]
	}
	return nil
}

// takeFrameLocked pops a recycled frame off the freelist — buffer and all —
// or allocates a fresh one. Callers hold p.mu.
func (p *Pool) takeFrameLocked() *Frame {
	if f := p.free; f != nil {
		p.free = f.lruNext
		p.freeN--
		f.lruNext = nil
		return f
	}
	return &Frame{pool: p, data: make([]byte, p.store.PageSize())}
}

// recycleLocked pushes a frame (not in any list or table slot) onto the
// freelist, clearing its identity so nothing can mistake it for a live page.
// A frame leaves the table only unpinned, and installLocked sets every other
// field, so nothing else is reset here. The freelist is bounded by the pool
// capacity; overflow is left to the GC.
func (p *Pool) recycleLocked(f *Frame) {
	if p.freeN >= p.capacity {
		return
	}
	f.id = 0
	f.lruPrev = nil
	f.lruNext = p.free
	p.free = f
	p.freeN++
}

// installLocked registers a frame (fresh or recycled, its data already
// holding the page image) for id: the frame counts one more install, takes
// its dirty bit and enters the front of the young list pinned once. Callers
// hold p.mu.
func (p *Pool) installLocked(f *Frame, id PageID, dirty bool) {
	f.id = id
	f.installs.Add(1)
	f.pins.Store(1)
	f.region = regionYoung
	f.dirty.Store(dirty)
	p.young.pushFront(f)
	if int(id) >= len(p.frames) {
		p.frames = append(p.frames, make([]*Frame, int(id)+1-len(p.frames))...)
	}
	p.frames[id] = f
	p.resident++
}

// NewPage allocates a fresh zeroed page and returns it pinned and dirty.
func (p *Pool) NewPage() (*Frame, error) { return p.newPage(nil) }

// newPage allocates a page and installs it pinned and dirty in a frame
// holding a copy of src's page, or zeros when src is nil. The frame may be a
// recycled one, so every byte is written before the page is handed out. A
// src frame hands its caller's pin over to the new page: it is unpinned in
// the same critical section, on success only.
func (p *Pool) newPage(src *Frame) (*Frame, error) {
	id, err := p.store.Alloc()
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.ensureRoomLocked(); err != nil {
		// Undo the allocation so the store does not leak the page.
		_ = p.store.Free(id)
		return nil, err
	}
	p.allocs.Add(1)
	f := p.takeFrameLocked()
	if src == nil {
		clear(f.data)
	} else {
		copy(f.data, src.data)
		p.unpinLocked(src)
	}
	p.installLocked(f, id, true)
	return f, nil
}

// FreePage removes the page from the pool and the store. The page must not
// be pinned.
func (p *Pool) FreePage(id PageID) error {
	_, err := p.freePages([]PageID{id})
	return err
}

// freePages removes pages from the pool and the store in one critical
// section: each id's resident frame is dropped and the store frees the id
// (the lock order is pool, then store, as for reads and write-backs). A
// pinned page is refused and stays allocated. The ids not freed — refused,
// or failed in the store — are returned in failed, and err is the first
// error. ids is only read.
func (p *Pool) freePages(ids []PageID) (failed []PageID, err error) {
	n := 0
	p.mu.Lock()
	for _, id := range ids {
		if f := p.frameLocked(id); f != nil {
			if f.pins.Load() > 0 {
				failed = append(failed, id)
				if err == nil {
					err = fmt.Errorf("pagestore: freeing pinned page %d", id)
				}
				continue
			}
			p.dropLocked(f)
		}
		n++
		if ferr := p.store.Free(id); ferr != nil {
			failed = append(failed, id)
			if err == nil {
				err = ferr
			}
		}
	}
	p.mu.Unlock()
	p.frees.Add(uint64(n))
	return failed, err
}

// pinLocked pins a resident frame. A young frame pinned again after a
// release moves to the old region; a nested pin, taken while the frame is
// still pinned, leaves it where it is.
func (p *Pool) pinLocked(f *Frame) {
	if f.pins.Add(1) == 1 && f.region == regionYoung {
		f.region = regionOld
		p.young.remove(f)
		p.old.pushFront(f)
		p.rebalanceLocked()
	}
}

// listFor returns the eviction list the frame belongs to when unpinned.
func (p *Pool) listFor(f *Frame) *frameList {
	if f.region == regionOld {
		return &p.old
	}
	return &p.young
}

// victimLocked returns the least-recently released unpinned frame of a
// list, or nil if every frame in it is pinned.
func victimLocked(l *frameList) *Frame {
	for f := l.back(); f != nil; f = f.lruPrev {
		if f.pins.Load() == 0 {
			return f
		}
	}
	return nil
}

// ensureRoomLocked evicts one unpinned frame when the pool is at capacity:
// the young region's tail first, the old region's only when no young frame
// is evictable.
func (p *Pool) ensureRoomLocked() error {
	if p.resident < p.capacity {
		return nil
	}
	f := victimLocked(&p.young)
	fromOld := false
	if f == nil {
		f = victimLocked(&p.old)
		fromOld = true
	}
	if f == nil {
		return ErrPoolFull
	}
	if f.dirty.Load() {
		if err := p.store.WritePage(f.id, f.data); err != nil {
			return err
		}
		p.writes.Add(1)
		p.evictWrites.Add(1)
		f.dirty.Store(false)
	}
	p.dropLocked(f)
	if fromOld {
		p.oldEvictions.Add(1)
	} else {
		p.youngEvictions.Add(1)
	}
	return nil
}

// dropLocked removes a resident, unpinned frame from its list and the frame
// table and recycles the frame through the freelist.
func (p *Pool) dropLocked(f *Frame) {
	p.listFor(f).remove(f)
	p.frames[f.id] = nil
	p.resident--
	p.recycleLocked(f)
}

// rebalanceLocked demotes the old region's tail back into the young
// region while the old region exceeds its cap, keeping a bounded share of
// the pool for tenured pages.
func (p *Pool) rebalanceLocked() {
	for p.old.len() > p.oldCap {
		f := p.old.back()
		p.old.remove(f)
		f.region = regionYoung
		p.young.pushFront(f)
	}
}

// Flush writes back all dirty frames (pinned or not) without evicting them.
func (p *Pool) Flush() error {
	p.mu.Lock()
	for _, f := range p.frames {
		if f != nil && f.dirty.Load() {
			if err := p.store.WritePage(f.id, f.data); err != nil {
				p.mu.Unlock()
				return err
			}
			p.writes.Add(1)
			f.dirty.Store(false)
		}
	}
	p.mu.Unlock()
	return nil
}

// EvictAll flushes and drops every unpinned frame — a "cold cache" reset so
// the next query's PhysicalReads counts each touched page exactly once.
// Dropped frames land on the freelist, so the refill after an EvictAll
// reuses their buffers instead of allocating.
func (p *Pool) EvictAll() error {
	p.mu.Lock()
	for _, f := range p.frames {
		if f == nil || f.pins.Load() > 0 {
			continue
		}
		if f.dirty.Load() {
			if err := p.store.WritePage(f.id, f.data); err != nil {
				p.mu.Unlock()
				return err
			}
			p.writes.Add(1)
			f.dirty.Store(false)
		}
		p.dropLocked(f)
	}
	p.mu.Unlock()
	return nil
}

// Stats returns a snapshot of the I/O counters. Under concurrent use the
// counters are updated atomically but the snapshot as a whole is not a
// consistent cut; per-query accounting should use GetTracked instead of
// deltas of this snapshot.
func (p *Pool) Stats() Stats {
	// Every write-back counts in writes before evictWrites, so loading
	// evictWrites first keeps the difference from going negative.
	evict := p.evictWrites.Load()
	writes := p.writes.Load()
	return Stats{
		LogicalReads:   p.logicalReads.Load(),
		PhysicalReads:  p.physicalReads.Load(),
		Writes:         writes,
		FlushWrites:    writes - min(evict, writes),
		Allocs:         p.allocs.Load(),
		Frees:          p.frees.Load(),
		Clones:         p.clones.Load(),
		YoungEvictions: p.youngEvictions.Load(),
		OldEvictions:   p.oldEvictions.Load(),
	}
}

// Residency is a point-in-time census of the pool's frames — the gauge
// complement to the monotone Stats counters. Young/Old split the
// resident frames by LRU region; Pinned counts frames currently
// held by a caller.
type Residency struct {
	Frames   int `json:"frames"`
	Young    int `json:"young"`
	Old      int `json:"old"`
	Pinned   int `json:"pinned"`
	Capacity int `json:"capacity"`
}

// Residency counts the resident frames under the pool lock: one
// consistent cut.
func (p *Pool) Residency() Residency {
	p.mu.Lock()
	defer p.mu.Unlock()
	r := Residency{Frames: p.resident, Young: p.young.len(), Old: p.old.len(), Capacity: p.capacity}
	for _, f := range p.frames {
		if f != nil && f.pins.Load() > 0 {
			r.Pinned++
		}
	}
	return r
}

// ResetStats zeroes the I/O counters.
func (p *Pool) ResetStats() {
	p.logicalReads.Store(0)
	p.physicalReads.Store(0)
	p.writes.Store(0)
	p.evictWrites.Store(0)
	p.allocs.Store(0)
	p.frees.Store(0)
	p.clones.Store(0)
	p.youngEvictions.Store(0)
	p.oldEvictions.Store(0)
}

// ID returns the frame's page id.
func (f *Frame) ID() PageID { return f.id }

// Data returns the page bytes; mutate only while pinned and call MarkDirty.
// No slice of the returned buffer may outlive the frame's Release: the
// buffer is recycled for other pages once the frame is evicted.
func (f *Frame) Data() []byte { return f.data }

// Pinned reports whether the frame currently holds at least one pin. It
// reads the pin count without the pool lock, so the answer is advisory
// under concurrency — exactly what the btree view guard needs: a view
// whose frame reports Pinned()==false has certainly outlived its borrow.
func (f *Frame) Pinned() bool { return f.pins.Load() > 0 }

// Installs counts the pages this frame has held: it grows each time the pool
// installs a page in the frame — a miss or a NewPage — and never otherwise,
// so a borrow that recorded it at pin time sees a different count once the
// frame was recycled, even for the same page id read back. Like Pinned it
// reads without the pool lock, for the btree view guard.
func (f *Frame) Installs() uint32 { return f.installs.Load() }

// MarkDirty records that the page bytes changed.
func (f *Frame) MarkDirty() { f.dirty.Store(true) }

// Release unpins the frame. Unpinned frames become eviction candidates,
// and any view over the frame's bytes dies with the pin.
func (f *Frame) Release() {
	p := f.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	p.unpinLocked(f)
}

// unpinLocked drops one pin; the frame's last pin moves it to the front of
// its list, where it waits as an eviction candidate. Callers hold p.mu.
func (p *Pool) unpinLocked(f *Frame) {
	if f.pins.Load() == 0 {
		panic(fmt.Sprintf("pagestore: over-release of page %d", f.id))
	}
	if f.pins.Add(-1) == 0 {
		p.listFor(f).moveToFront(f)
	}
}

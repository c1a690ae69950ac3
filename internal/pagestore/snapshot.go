package pagestore

// MVCC support: page cloning for copy-on-write tree updates and deferred
// reclamation of superseded pages.
//
// A copy-on-write commit never rewrites a page that a published root set
// can reach; it clones the page, mutates the clone, and hands the
// superseded original to DeferFrees tagged with the commit's version D
// (the first version at which the page is unreachable). Readers pin the
// version of the root set they sweep via PinVersion/UnpinVersion. A
// deferred page is freed once the min-referenced-version watermark — the
// smallest version any active snapshot still pins — reaches D: at that
// point every live snapshot observes a root set of version ≥ D, so no
// sweep can step onto the page. With no snapshots active the watermark is
// +∞ and superseded pages free immediately.

import "slices"

// ClonePage allocates a fresh page holding a copy of src's bytes and
// returns it pinned and dirty. src is a frame the caller holds pinned — the
// node a copy-on-write descent is about to shadow — and the clone takes over
// that pin: on success src is unpinned in the same critical section that
// installs the clone, exactly as a Release would, so the caller must not
// release it again; on error src stays pinned and the caller releases it.
// The copy writes every byte of the new frame, so nothing clears it first.
// The source page is untouched, which is what keeps views of the original
// valid for concurrent snapshot readers.
func (p *Pool) ClonePage(src *Frame) (*Frame, error) {
	nf, err := p.newPage(src)
	if err != nil {
		return nil, err
	}
	p.clones.Add(1)
	return nf, nil
}

// CloneCount returns the cumulative number of ClonePage calls. Clones are
// made only while the index's writer lock is held, so commit tracing can
// attribute the delta across a stage to that stage exactly.
func (p *Pool) CloneCount() uint64 { return p.clones.Load() }

// ReclaimedCount returns the cumulative number of deferred pages freed by
// watermark reclamation (DeferFrees and UnpinVersion alike).
func (p *Pool) ReclaimedCount() uint64 { return p.reclaimed.Load() }

// deferredFrees is one commit's batch of superseded pages: ids becomes
// freeable when the snapshot watermark reaches deadAt.
type deferredFrees struct {
	deadAt uint64
	ids    []PageID
}

// PinVersion registers an active snapshot of the given commit version,
// holding back reclamation of any page superseded at a later version.
func (p *Pool) PinVersion(v uint64) {
	p.snapMu.Lock()
	p.snapRefs[v]++
	p.snapMu.Unlock()
}

// UnpinVersion releases one PinVersion reference and reclaims whatever the
// advanced watermark newly allows.
func (p *Pool) UnpinVersion(v uint64) {
	p.snapMu.Lock()
	defer p.snapMu.Unlock()
	n := p.snapRefs[v] - 1
	if n <= 0 {
		delete(p.snapRefs, v)
	} else {
		p.snapRefs[v] = n
	}
	p.reclaimLocked(0, nil)
}

// DeferFrees schedules pages superseded by the commit that produced
// version deadAt: they are freed once no snapshot of an earlier version
// remains. Call after the new root set is published, so a concurrent
// Snapshot can no longer pin a version < deadAt. The return value is the
// number of deferred pages freed during this call (from this batch or
// older ones the advanced watermark released) — the commit trace's exact
// reclaim-stage attribution. DeferFrees keeps no reference to ids: it
// copies them only when they have to wait behind a snapshot.
func (p *Pool) DeferFrees(deadAt uint64, ids []PageID) int {
	if len(ids) == 0 {
		return 0
	}
	p.deferredTotal.Add(uint64(len(ids)))
	p.snapMu.Lock()
	defer p.snapMu.Unlock()
	return p.reclaimLocked(deadAt, ids)
}

// reclaimLocked queues ids, superseded at version deadAt (none for a
// retry), behind the queued batches, frees every batch the watermark has
// passed and returns the number of pages freed. A batch is freed in one
// pool critical section (freePages); one the watermark has not passed stays
// queued, ids as a copy, so the caller's slice is read during the call only.
// Requires snapMu; snapMu is always outer, never acquired with the pool lock
// held. A page that fails to free — refused as pinned, or failed in the
// store — stays queued for the next reclamation attempt and is counted in
// SnapshotCensus.ReclaimFailures rather than surfaced: reclamation runs on
// reader-release paths that have no error channel of their own.
func (p *Pool) reclaimLocked(deadAt uint64, ids []PageID) int {
	watermark := ^uint64(0)
	for v := range p.snapRefs {
		if v < watermark {
			watermark = v
		}
	}
	if len(ids) > 0 {
		if deadAt > watermark {
			ids = slices.Clone(ids)
		}
		p.deferred = append(p.deferred, deferredFrees{deadAt: deadAt, ids: ids})
	}
	freed := 0
	kept := p.deferred[:0]
	for _, d := range p.deferred {
		if d.deadAt > watermark {
			kept = append(kept, d)
			continue
		}
		failed, _ := p.freePages(d.ids)
		if len(failed) > 0 {
			p.reclaimFails.Add(uint64(len(failed)))
			kept = append(kept, deferredFrees{deadAt: d.deadAt, ids: failed})
		}
		freed += len(d.ids) - len(failed)
	}
	clear(p.deferred[len(kept):]) // drops the caller's ids, freed above
	p.deferred = kept
	if freed > 0 {
		p.reclaimed.Add(uint64(freed))
	}
	return freed
}

// SnapshotCensus reports the pool's MVCC state, for the obs gauges and the
// reclamation tests.
type SnapshotCensus struct {
	// Active is the number of live PinVersion references; Versions counts
	// the distinct pinned versions and Oldest is the watermark (0 when no
	// snapshot is active).
	Active   int
	Versions int
	Oldest   uint64
	// DeferredPages counts superseded pages awaiting reclamation (the
	// reclaim backlog); ReclaimFailures counts FreePage errors during
	// reclamation (the pages remain queued and are retried).
	DeferredPages   int
	ReclaimFailures uint64
	// DeferredTotal and Reclaimed are cumulative: pages ever queued by
	// DeferFrees and deferred pages actually freed by watermark
	// reclamation. With no pins active the two track each other and
	// DeferredPages is their difference plus failed-retry leftovers.
	DeferredTotal uint64
	Reclaimed     uint64
}

// SnapshotCensus returns a point-in-time census of active snapshot pins
// and deferred frees.
func (p *Pool) SnapshotCensus() SnapshotCensus {
	p.snapMu.Lock()
	defer p.snapMu.Unlock()
	c := SnapshotCensus{
		ReclaimFailures: p.reclaimFails.Load(),
		DeferredTotal:   p.deferredTotal.Load(),
		Reclaimed:       p.reclaimed.Load(),
	}
	for v, n := range p.snapRefs {
		c.Active += n
		c.Versions++
		if c.Oldest == 0 || v < c.Oldest {
			c.Oldest = v
		}
	}
	for _, d := range p.deferred {
		c.DeferredPages += len(d.ids)
	}
	return c
}

package core

import (
	"dualcdb/internal/btree"
	"dualcdb/internal/obs"
	"dualcdb/internal/pagestore"
)

// StatsSnapshot is the unified observability view of one index: its shape,
// the buffer-pool counters and frame residency, the tree-traversal
// counters, and — when an observer is attached — the
// per-path query metrics, stage latencies and slow traces. The struct
// marshals to the JSON served at /debug/stats by the debug server.
type StatsSnapshot struct {
	Tuples    int    `json:"tuples"`    // relation size
	Indexed   int    `json:"indexed"`   // satisfiable tuples in the trees
	Pages     int    `json:"pages"`     // total tree pages (Figure 10's space metric)
	Slopes    int    `json:"slopes"`    // |S|
	Technique string `json:"technique"` // approximation technique

	Pool      pagestore.Stats          `json:"pool"`
	Residency pagestore.Residency      `json:"residency"`
	Snapshots pagestore.SnapshotCensus `json:"snapshots"`
	MVCC      MVCCStats                `json:"mvcc"`
	Sweeps    btree.SweepStats         `json:"sweeps"`

	Observer *obs.Snapshot `json:"observer,omitempty"`
}

// MVCCStats is the version/watermark health view of the MVCC layer: how
// far published state has run ahead of the oldest pinned snapshot, how
// many superseded pages the watermark is holding in memory, and how much
// copy-on-write and reclamation work commits have done in total.
type MVCCStats struct {
	// Version is the currently published commit version; Watermark is
	// the oldest version any active snapshot still pins (0 when none);
	// VersionLag is their difference while a snapshot is pinned — a
	// growing lag means a long-held snapshot is blocking reclamation.
	Version    uint64 `json:"version"`
	Watermark  uint64 `json:"watermark"`
	VersionLag uint64 `json:"version_lag"`
	// PinnedSnapshots counts live PinVersion references;
	// ReclaimBacklogPages counts superseded pages awaiting reclamation.
	PinnedSnapshots     int `json:"pinned_snapshots"`
	ReclaimBacklogPages int `json:"reclaim_backlog_pages"`
	// PagesCloned and PagesReclaimed are cumulative copy-on-write
	// clones and watermark-freed pages.
	PagesCloned    uint64 `json:"pages_cloned"`
	PagesReclaimed uint64 `json:"pages_reclaimed"`
}

// MVCCStats assembles the MVCC health view from the published root set
// and the pool's snapshot census. Safe concurrently with readers and
// writers — the root set is one atomic load and the census takes only
// the pool's snapshot mutex.
func (ix *Index) MVCCStats() MVCCStats {
	rs := ix.roots.Load()
	c := ix.pool.SnapshotCensus()
	m := MVCCStats{
		Version:             rs.version,
		Watermark:           c.Oldest,
		PinnedSnapshots:     c.Active,
		ReclaimBacklogPages: c.DeferredPages,
		PagesCloned:         ix.pool.CloneCount(),
		PagesReclaimed:      c.Reclaimed,
	}
	if c.Active > 0 && rs.version > c.Oldest {
		m.VersionLag = rs.version - c.Oldest
	}
	return m
}

// SweepStats sums the descent and leaf-visit counters over every tree of
// the index.
func (ix *Index) SweepStats() btree.SweepStats {
	var s btree.SweepStats
	for _, t := range ix.trees {
		s.Add(t.SweepStats())
	}
	return s
}

// StatsSnapshot assembles the unified view. Safe to call concurrently
// with queries and commits: the index shape is read from the published
// root set (one atomic load), and every other source is an atomic
// counter, the pool's census under its lock, or the observer's own
// lock-protected state.
func (ix *Index) StatsSnapshot() StatsSnapshot {
	rs := ix.roots.Load()
	return StatsSnapshot{
		Tuples:    rs.live,
		Indexed:   rs.indexed,
		Pages:     ix.Pages(),
		Slopes:    ix.geo.sites(),
		Technique: ix.opt.Technique.String(),
		Pool:      ix.pool.Stats(),
		Residency: ix.pool.Residency(),
		Snapshots: ix.pool.SnapshotCensus(),
		MVCC:      ix.MVCCStats(),
		Sweeps:    ix.SweepStats(),
		Observer:  ix.opt.Observe.ObserverSnapshot(),
	}
}

// SetObserver attaches an observer to (or, with nil, detaches it from) the
// index's query paths. Not synchronized with in-flight queries: attach or
// detach only while no queries run.
func (ix *Index) SetObserver(o *obs.Observer) {
	ix.opt.Observe = o
	ix.registerGauges()
}

// registerGauges bridges the storage-layer counters into the observer's
// registry as snapshot-time funcs, so /debug/metrics shows pool, MVCC and
// sweep state next to the query metrics without mirroring every mutation
// into the registry.
func (ix *Index) registerGauges() {
	r := ix.opt.Observe.Registry()
	if r == nil {
		return
	}
	r.Func("pool.logical_reads", func() any { return ix.pool.Stats().LogicalReads })
	r.Func("pool.physical_reads", func() any { return ix.pool.Stats().PhysicalReads })
	r.Func("pool.writes", func() any { return ix.pool.Stats().Writes })
	r.Func("pool.writes_flush", func() any { return ix.pool.Stats().FlushWrites })
	r.Func("pool.evictions.young", func() any { return ix.pool.Stats().YoungEvictions })
	r.Func("pool.evictions.old", func() any { return ix.pool.Stats().OldEvictions })
	r.Func("pool.residency", func() any { return ix.pool.Residency() })
	r.Func("pool.snapshots", func() any { return ix.pool.SnapshotCensus() })
	r.Func("mvcc", func() any { return ix.MVCCStats() })
	r.Func("sweeps", func() any { return ix.SweepStats() })
}

// Observer returns the attached observer (nil when observation is off).
func (ix *Index) Observer() *obs.Observer { return ix.opt.Observe }

package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"dualcdb/internal/btree"
	"dualcdb/internal/constraint"
	"dualcdb/internal/geom"
	"dualcdb/internal/pagestore"
)

// Index is the dual-representation index over a generalized relation: per
// site of the predefined set S one TOP tree and one BOT tree, plus the
// handicap metadata of technique T2. The engine — bulk load, atomic
// commits, versioned root sets, snapshots, sweeps, refinement, tracing — is
// the same in every dimension; what differs between the 2-D slope-set
// index (New/Build, Sections 3–4.3) and the d-dimensional site-set index
// (NewD/BuildD, Section 4.4) is the slopeSpace geometry it holds.
//
// The index holds no copy of the relation it indexes: a batch writes the
// caller's Relation, Commit publishes Relation.Freeze() as the version's
// tuples and Abort sets the relation back to the base version's view with
// Relation.Restore — which drops every write since, so once an index is
// built over a relation, that one index is the only thing that may write
// to it (Insert/Delete).
type Index struct {
	rel  *constraint.Relation
	opt  Options
	dim  int // ambient dimension d of the relation
	geo  slopeSpace
	pool *pagestore.Pool
	// trees is the writer's live tree list, in the order the catalog page
	// persists it: per site i the TOP^P(s_i) tree at 2i and the BOT^P(s_i)
	// tree at 2i+1, and nothing else: vertical selections x θ c have no
	// dual point (footnote 4) and scan. A rootSet lists a version's frozen
	// handles in the same order.
	trees []*btree.Tree // guarded by writeMu

	// roots is the current published rootSet (mvcc.go): readers load it
	// with one atomic pointer read and never lock. writeMu serializes
	// writers; the live trees above are the writer's working set and are
	// only mutated under it (copy-on-write, so published versions are
	// never dirtied). The indexed-tuple count lives inside the rootSet,
	// versioned with the trees.
	roots   atomic.Pointer[rootSet]
	writeMu sync.Mutex

	// Persistence bookkeeping (see persist.go). catalog is the catalog
	// page (InvalidPage when the index shares a pool and cannot persist);
	// tupleChain heads the serialized-relation page chain after a Save, of
	// dataPages pages; staleChain holds pages of superseded chains a Save
	// has yet to free.
	catalog    pagestore.PageID
	tupleChain pagestore.PageID
	dataPages  int
	staleChain []pagestore.PageID
}

// IndexD is the name the d-dimensional constructors return the engine
// under; what is 2-D-only (Save/Open, T1, line, tuple and vertical
// selections) returns an error on an index of dimension > 2.
type IndexD = Index

// New creates an empty 2-D dual index over rel with the given options.
func New(rel *constraint.Relation, opt Options) (*Index, error) {
	if rel.Dim() != 2 {
		return nil, fmt.Errorf("core: Index is 2-dimensional; use NewD for dimension %d", rel.Dim())
	}
	slopes, err := opt.normalize()
	if err != nil {
		return nil, err
	}
	return newIndex(rel, opt, newSlopeSet(slopes))
}

// NewD creates an empty d-dimensional dual index (d ≥ 2 works, but the
// slope-set geometry of New is tighter there).
func NewD(rel *constraint.Relation, opt OptionsD) (*IndexD, error) {
	d := rel.Dim()
	if d < 2 {
		return nil, fmt.Errorf("core: dimension %d < 2", d)
	}
	geo, err := newSiteSet(opt.Sites, d-1, opt.SlopeBoxLo, opt.SlopeBoxHi)
	if err != nil {
		return nil, err
	}
	o := Options{
		Technique: T2,
		PageSize:  opt.PageSize,
		PoolPages: opt.PoolPages,
		Pool:      opt.Pool,
		Observe:   opt.Observe,
	}
	o.storageDefaults()
	return newIndex(rel, o, geo)
}

// newIndex creates the empty engine over a geometry: the page pool, one
// tree pair per site and the first published version.
func newIndex(rel *constraint.Relation, opt Options, geo slopeSpace) (*Index, error) {
	pool := opt.Pool
	owned := pool == nil
	if owned {
		store := opt.Store
		if store == nil {
			store = pagestore.NewMemStore(opt.PageSize)
		}
		pool = pagestore.NewPoolWithOptions(store, pagestore.PoolOptions{Capacity: opt.PoolPages})
	}
	ix := &Index{rel: rel, opt: opt, dim: rel.Dim(), geo: geo, pool: pool}
	if owned {
		// Reserve the catalog page (page 1 of the dedicated store) so the
		// database can be persisted with Save (see persist.go).
		f, err := pool.NewPage()
		if err != nil {
			return nil, err
		}
		ix.catalog = f.ID()
		f.Release()
	}
	cfg := btree.Config{HandicapKinds: geo.slotKinds()}
	for range 2 * geo.sites() {
		t, err := btree.New(pool, cfg)
		if err != nil {
			return nil, err
		}
		ix.trees = append(ix.trees, t)
	}
	ix.publishLocked(1, 0, extents{})
	ix.registerGauges()
	return ix, nil
}

// ErrTupleRange is returned by Commit.Insert, Build, BuildD and Open for a
// tuple outside the range T2's margin is a bound over (DESIGN.md §17): a
// generator coordinate that is not finite or beyond geom.MaxCoord. Such a
// tuple is never indexed.
var ErrTupleRange = errors.New("core: tuple outside the indexable range")

// checkRange reports a tuple the index must refuse as an ErrTupleRange; an
// unsatisfiable one has no generators and passes.
func checkRange(t *constraint.Tuple) error {
	ext, _ := t.Extension() // on error: no generators
	for _, gens := range [2][]geom.Point{ext.Verts, ext.Rays} {
		for _, g := range gens {
			for _, c := range g {
				if !(math.Abs(c) <= geom.MaxCoord) { // NaN fails too
					return fmt.Errorf("%w: generator %v beyond ±%g", ErrTupleRange, g, float64(geom.MaxCoord))
				}
			}
		}
	}
	return nil
}

// Build bulk-loads a 2-D index from every satisfiable tuple currently in
// the relation.
func Build(rel *constraint.Relation, opt Options) (*Index, error) {
	return bulkLoaded(New(rel, opt))
}

// BuildD bulk-loads a d-dimensional dual index from the relation.
func BuildD(rel *constraint.Relation, opt OptionsD) (*IndexD, error) {
	return bulkLoaded(NewD(rel, opt))
}

// bulkLoaded fills a freshly created, not yet shared index from its
// relation (and passes a constructor error through).
func bulkLoaded(ix *Index, err error) (*Index, error) {
	if err != nil {
		return nil, err
	}
	var ts []*constraint.Tuple
	var buildErr error
	ix.rel.Scan(func(t *constraint.Tuple) bool {
		if _, err := t.Extension(); err != nil {
			buildErr = err
			return false
		}
		if t.IsSatisfiable() { // empty extensions match nothing and are not indexed
			ts = append(ts, t)
		}
		buildErr = checkRange(t)
		return buildErr == nil
	})
	if buildErr != nil {
		return nil, buildErr
	}

	// The site trees' bounds come from the extent table, in E².
	var ext extents
	if ix.dim == 2 {
		ext = ext.extend(ix.rel.Freeze(), ix.geo)
	}
	for i := 0; i < ix.geo.sites(); i++ {
		if err := ix.buildSite(i, ts, ext); err != nil {
			return nil, err
		}
	}
	// Re-publish version 1 over the bulk-loaded trees. The index has not
	// escaped to any reader yet, so mutating the trees in place between
	// newIndex's publish and this one is unobservable.
	ix.publishLocked(1, len(ts), ext)
	return ix, nil
}

// buildSite bulk-loads the tree pair of site i, bounded by the extents in
// ext, and folds every tuple's cell extrema into that pair's handicap slots
// (the paper's preprocessing step, restricted to one site).
func (ix *Index) buildSite(i int, ts []*constraint.Tuple, ext extents) error {
	upEntries := make([]btree.Entry, 0, len(ts))
	downEntries := make([]btree.Entry, 0, len(ts))
	slots := len(ix.geo.slotKinds())
	up := make([]btree.HandicapMerge, 0, slots*len(ts))
	down := make([]btree.HandicapMerge, 0, slots*len(ts))
	for _, t := range ts {
		top, bot := ix.keys(t, i)
		upEntries = append(upEntries, btree.Entry{Key: top, TID: uint32(t.ID())})
		downEntries = append(downEntries, btree.Entry{Key: bot, TID: uint32(t.ID())})
		up, down = ix.handicapMerges(up, down, i, t, top, bot)
	}
	var of func(uint32) [2]float64
	if ext.xext != nil {
		of = ext.of
	}
	if err := ix.trees[2*i].BulkLoadExt(upEntries, of); err != nil {
		return err
	}
	if err := ix.trees[2*i+1].BulkLoadExt(downEntries, of); err != nil {
		return err
	}
	return ix.foldHandicaps(i, up, down)
}

// handicapMerges appends t's contribution to the handicap slots of site i's
// tree pair to up and down: per slot, the tuple's tree key (top in B^up, bot
// in B^down — its keys at site i) goes to the leaf its routing key, the
// geometry's cell extremum, selects.
func (ix *Index) handicapMerges(up, down []btree.HandicapMerge, i int, t *constraint.Tuple, top, bot float64) ([]btree.HandicapMerge, []btree.HandicapMerge) {
	upRoutes, downRoutes := ix.geo.routes(t, i)
	for slot := range ix.geo.slotKinds() {
		up = append(up, btree.HandicapMerge{RouteKey: upRoutes[slot], Slot: slot, Value: top})
		down = append(down, btree.HandicapMerge{RouteKey: downRoutes[slot], Slot: slot, Value: bot})
	}
	return up, down
}

// foldHandicaps folds the merges of many tuples into the handicap slots of
// site i's tree pair, one pass per tree.
func (ix *Index) foldHandicaps(i int, up, down []btree.HandicapMerge) error {
	if err := ix.trees[2*i].FoldHandicaps(up); err != nil {
		return err
	}
	return ix.trees[2*i+1].FoldHandicaps(down)
}

// mergeHandicaps folds one tuple's contribution (handicapMerges) into every
// site tree's handicap slots, a descent per slot; keys are its tree keys in
// tree order (treeKeys).
func (ix *Index) mergeHandicaps(t *constraint.Tuple, keys []float64) error {
	for i := 0; i < ix.geo.sites(); i++ {
		upRoutes, downRoutes := ix.geo.routes(t, i)
		for slot := range ix.geo.slotKinds() {
			if err := ix.trees[2*i].MergeHandicap(upRoutes[slot], slot, keys[2*i]); err != nil {
				return err
			}
			if err := ix.trees[2*i+1].MergeHandicap(downRoutes[slot], slot, keys[2*i+1]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Insert adds a tuple to the relation and the index as one atomic commit:
// concurrent readers see either the full pre-insert or the full
// post-insert version, never a partially indexed tuple. Unsatisfiable
// tuples are stored in the relation but not indexed (they match no
// query). On error nothing is published and the relation rolls back,
// though the failed tuple keeps its consumed id.
func (ix *Index) Insert(t *constraint.Tuple) (constraint.TupleID, error) {
	c := ix.Begin()
	c.op = "insert"
	id, err := c.Insert(t)
	if err != nil {
		c.Abort()
		return 0, err
	}
	if err := c.Commit(); err != nil {
		return 0, err
	}
	return id, nil
}

// Delete removes a tuple from the index and the relation as one atomic
// commit. Handicap slots are left conservatively stale (sound; costs
// only I/O) until RebuildHandicaps recomputes them.
func (ix *Index) Delete(id constraint.TupleID) error {
	c := ix.Begin()
	c.op = "delete"
	if err := c.Delete(id); err != nil {
		c.Abort()
		return err
	}
	return c.Commit()
}

// RebuildHandicaps recomputes every handicap slot exactly from the current
// relation contents, published as one commit.
func (ix *Index) RebuildHandicaps() error {
	c := ix.Begin()
	c.op = "rebuild"
	if err := c.RebuildHandicaps(); err != nil {
		c.Abort()
		return err
	}
	return c.Commit()
}

// Pages returns the total number of pages occupied by all 2·|S| trees at
// the current version — the space metric of Figure 10.
func (ix *Index) Pages() int {
	n := 0
	for _, t := range ix.roots.Load().trees {
		n += t.Pages()
	}
	return n
}

// Pool exposes the buffer pool (for I/O accounting in experiments).
func (ix *Index) Pool() *pagestore.Pool { return ix.pool }

// CheckInvariants validates the structural invariants of every live tree,
// that each holds exactly the tuples the current version counts as indexed
// and that each entry's leaf bound holds its tuple's x-extent (a test and
// debugging aid). It excludes writers for the duration.
func (ix *Index) CheckInvariants() error {
	ix.writeMu.Lock()
	defer ix.writeMu.Unlock()
	rs := ix.roots.Load()
	if err := rs.checkExtents(ix.geo); err != nil {
		return err
	}
	for j, t := range ix.trees {
		if err := t.CheckInvariants(); err != nil {
			return err
		}
		if size := t.Meta().Size; size != rs.indexed {
			return fmt.Errorf("core: tree %d holds %d entries, version counts %d indexed tuples", j, size, rs.indexed)
		}
	}
	return nil
}

// DecodeCacheStats reads the counters of a node-header cache the index no
// longer has: every pin parses the header in place (DESIGN.md §8.1).
//
// Deprecated: always zero. It exists only because bench/, which only a
// [benchmark] PR may edit, still reads it; ROADMAP direction 2(b) deletes
// both.
func (ix *Index) DecodeCacheStats() struct{ Hits, Misses, Invalidations uint64 } {
	return struct{ Hits, Misses, Invalidations uint64 }{}
}

// Slopes returns the sorted slope set S of a 2-D slope-set index (nil on a
// site-set index).
func (ix *Index) Slopes() []float64 {
	if g, ok := ix.geo.(*slopeSet); ok {
		return append([]float64(nil), g.s...)
	}
	return nil
}

// Sites returns a copy of the site set S ⊂ E^{d−1} of a site-set index (nil
// on a slope-set index).
func (ix *Index) Sites() []geom.Point {
	g, ok := ix.geo.(*siteSet)
	if !ok {
		return nil
	}
	out := make([]geom.Point, len(g.s))
	for i, s := range g.s {
		out[i] = s.Clone()
	}
	return out
}

// Len returns the number of indexed (satisfiable) tuples at the current
// version.
func (ix *Index) Len() int { return ix.roots.Load().indexed }

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
	// keyBuf and supBuf are the writer's scratch: one operation's tree keys
	// (treeKeys) and one commit's superseded pages, gathered from every
	// tree for DeferFrees, which keeps no reference to it.
	keyBuf []float64          // guarded by writeMu
	supBuf []pagestore.PageID // guarded by writeMu

	// roots is the current published rootSet (mvcc.go): readers load it
	// with one atomic pointer read and never lock. writeMu serializes
	// writers; the live trees above are the writer's working set and are
	// only mutated under it (copy-on-write, so published versions are
	// never dirtied). The indexed-tuple count lives inside the rootSet,
	// versioned with the trees.
	roots   atomic.Pointer[rootSet]
	writeMu sync.Mutex

	// Persistence bookkeeping (see persist.go). catalog is the catalog
	// page; tupleChain heads the serialized-relation page chain after a
	// Save, of dataPages pages; staleChain holds pages of superseded chains
	// a Save has yet to free.
	catalog    pagestore.PageID
	tupleChain pagestore.PageID
	dataPages  int
	staleChain []pagestore.PageID
}

// IndexD is the name the d-dimensional constructors return the engine
// under; what is 2-D-only (Save/Open, T1, line, tuple and vertical
// selections) returns an error on an index of dimension > 2.
type IndexD = Index

// New creates an empty 2-D dual index over rel with the given options. The
// index covers only what is inserted through it, so rel must hold no tuple
// (Build indexes one that does).
func New(rel *constraint.Relation, opt Options) (*Index, error) {
	if n := rel.Len(); n > 0 {
		return nil, fmt.Errorf("core: the relation holds %d tuples an empty index would not cover; use Build", n)
	}
	return started(newSlopeIndex(rel, opt))
}

// newSlopeIndex is New over a relation that may hold tuples (Build's path).
func newSlopeIndex(rel *constraint.Relation, opt Options) (*Index, error) {
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
// slope-set geometry of New is tighter there) over a relation that, as for
// New, holds no tuple (BuildD indexes one that does).
func NewD(rel *constraint.Relation, opt OptionsD) (*IndexD, error) {
	if n := rel.Len(); n > 0 {
		return nil, fmt.Errorf("core: the relation holds %d tuples an empty index would not cover; use BuildD", n)
	}
	return started(newSiteIndex(rel, opt))
}

// newSiteIndex is NewD over a relation that may hold tuples (BuildD's path).
func newSiteIndex(rel *constraint.Relation, opt OptionsD) (*IndexD, error) {
	d := rel.Dim()
	if d < 2 {
		return nil, fmt.Errorf("core: dimension %d < 2", d)
	}
	geo, err := newSiteSet(opt.Sites, d-1)
	if err != nil {
		return nil, err
	}
	o := Options{
		Technique: T2,
		PageSize:  opt.PageSize,
		PoolPages: opt.PoolPages,
		Store:     opt.Store,
		Observe:   opt.Observe,
	}
	o.storageDefaults()
	return newIndex(rel, o, geo)
}

// newIndex creates the empty engine over a geometry: the page pool over
// the index's own store, the catalog page and one tree pair per site. It
// publishes no version: its caller does, once the trees are what version 1
// holds (start).
func newIndex(rel *constraint.Relation, opt Options, geo slopeSpace) (*Index, error) {
	store := opt.Store
	if store == nil {
		store = pagestore.NewMemStore(opt.PageSize)
	}
	pool := pagestore.NewPool(store, opt.PoolPages)
	ix := &Index{rel: rel, opt: opt, dim: rel.Dim(), geo: geo, pool: pool}
	// Reserve the catalog page (page 1 of the store) so the database can be
	// persisted with Save (see persist.go).
	f, err := pool.NewPage()
	if err != nil {
		return nil, err
	}
	ix.catalog = f.ID()
	f.Release()
	cfg := btree.Config{HandicapKinds: geo.slotKinds()}
	for range 2 * geo.sites() {
		t, err := btree.New(pool, cfg)
		if err != nil {
			return nil, err
		}
		ix.trees = append(ix.trees, t)
	}
	return ix, nil
}

// start publishes version 1 over the trees as they stand, with the indexed
// count and the extent tables of p, the prepared relation, and registers the
// index's gauges: the index is ready for readers.
func (ix *Index) start(p *prepared) {
	ix.publishLocked(1, p.indexed, p.ext)
	ix.registerGauges()
}

// started starts a new index over a relation that holds no tuple (New's and
// NewD's path), passing a constructor error through.
func started(ix *Index, err error) (*Index, error) {
	if err != nil {
		return nil, err
	}
	p, err := ix.prepare(ix.rel.Freeze(), false)
	if err != nil {
		return nil, err
	}
	ix.start(p)
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
	g := t.Generators()
	for _, gens := range [2][]float64{g.Vertices(), g.Rays()} {
		for i, c := range gens {
			if !(math.Abs(c) <= geom.MaxCoord) { // NaN fails too
				p := geom.Point(gens[i-i%g.Dim():][:g.Dim()])
				return fmt.Errorf("%w: generator %v beyond ±%g", ErrTupleRange, p, float64(geom.MaxCoord))
			}
		}
	}
	return nil
}

// Build bulk-loads a 2-D index from every satisfiable tuple currently in
// the relation.
func Build(rel *constraint.Relation, opt Options) (*Index, error) {
	return bulkLoaded(newSlopeIndex(rel, opt))
}

// BuildD bulk-loads a d-dimensional dual index from the relation.
func BuildD(rel *constraint.Relation, opt OptionsD) (*IndexD, error) {
	return bulkLoaded(newSiteIndex(rel, opt))
}

// bulkLoaded fills a freshly created, not yet shared index from its
// relation and starts it (and passes a constructor error through): one
// prepare pass over the relation, then the trees' pages, serially.
func bulkLoaded(ix *Index, err error) (*Index, error) {
	if err != nil {
		return nil, err
	}
	p, err := ix.prepare(ix.rel.Freeze(), true)
	if err != nil {
		return nil, err
	}
	if err := ix.setSites(p, true); err != nil {
		return nil, err
	}
	ix.start(p)
	return ix, nil
}

// setSites sets every site tree from p, the prepared tuples: the paper's
// preprocessing step. Per tree, in tree order, it gathers the entries and the
// handicap merges of the satisfiable tuples from p's keys and routes — per
// slot, the tuple's tree key (top in B^up, bot in B^down) goes to the leaf its
// routing key, the geometry's cell extremum, selects. With load it bulk-loads
// the entries first (Build); then SetHandicaps sets the tree's slots, and in
// E² its bounds from p's extent table, in one walk. Only this touches pages,
// on one goroutine and in the order the trees were always set in, so a
// relation gets the same page ids, and a saved file the same bytes, however
// the pass was split.
func (ix *Index) setSites(p *prepared, load bool) error {
	n, slots := len(p.ts), len(ix.geo.slotKinds())
	var ext func(uint32) [2]float64
	if ix.dim == 2 {
		ext = p.ext.of
	}
	entries := make([]btree.Entry, 0, p.indexed)
	merges := make([]btree.HandicapMerge, 0, p.indexed*slots)
	for j, tr := range ix.trees {
		entries, merges = entries[:0], merges[:0]
		keys, routes := p.keys[j*n:(j+1)*n], p.routes[j*n*slots:(j+1)*n*slots]
		for q, t := range p.ts {
			if !t.IsSatisfiable() {
				continue
			}
			entries = append(entries, btree.Entry{Key: keys[q], TID: uint32(t.ID())})
			for slot, r := range routes[q*slots : (q+1)*slots] {
				merges = append(merges, btree.HandicapMerge{RouteKey: r, Slot: slot, Value: keys[q]})
			}
		}
		if load {
			if err := tr.BulkLoad(entries); err != nil {
				return err
			}
		}
		if err := tr.SetHandicaps(merges, ext); err != nil {
			return err
		}
	}
	return nil
}

// mergeHandicaps folds one tuple's contribution (setSites' merges) into every
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
	rs := ix.roots.Load()
	for i := range rs.trees {
		n += rs.trees[i].Pages()
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

package core

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"dualcdb/internal/btree"
	"dualcdb/internal/constraint"
	"dualcdb/internal/pagestore"
)

// MVCC root sets and reader snapshots.
//
// Every query runs against a rootSet: one immutable, version-stamped view
// of the whole index — frozen read handles for all 2k trees, the
// indexed-tuple count, and the relation contents. The
// current rootSet is published through ix.roots with a single atomic
// pointer swap, so readers acquire a consistent view with one load and no
// lock; writers batch their mutations into a Commit (commit.go) that
// shadows shared pages copy-on-write and publishes the next version.
//
// A Snapshot pins a rootSet's version in the buffer pool's snapshot
// census, which holds back reclamation of any page a commit supersedes
// at a later version — the min-referenced-version watermark in
// pagestore/snapshot.go. Acquire uses pin-then-validate: pin the loaded
// version, then re-load; if the pointer moved, a commit may already have
// queued that version's superseded pages before the pin landed, so drop
// the pin and retry. When the second load still returns the same rootSet,
// the next commit's DeferFrees necessarily observes the pin (both run
// under the pool's snapshot mutex, and the commit publishes before it
// defers), so every page this snapshot can reach stays allocated until
// Release.

// rootSet is one published version of the index. All fields are immutable
// after publication; writers build the next rootSet rather than touching
// a published one.
type rootSet struct {
	version uint64

	// trees holds the frozen read handles in the order of Index.trees, in
	// one array.
	trees []btree.Tree

	// indexed counts the satisfiable tuples of this version — exactly the
	// tuples every site tree holds. It is carried from commit to commit
	// inside the rootSet, which is what makes it readable without a lock:
	// a reader sees the count that matches the trees it sweeps, never a
	// torn intermediate.
	indexed int

	// tuples is the relation frozen at this version (constraint.View): the
	// tuple of every id the version holds; live counts them. Tuples are
	// immutable once inserted, and versions share the pointers and every chunk
	// of the relation's table a commit did not write.
	tuples constraint.View
	live   int

	extents
}

// extents are a 2-D version's x-extents and tangent bytes (zero on an index
// of dimension > 2).
type extents struct {
	// xext[id−1] is the x-extent {infX, supX} of the tuple with that id — what
	// keyRule turns a site key into a bracket at another slope with, and what
	// the site trees' child bounds are unions of. Ids are never reused and a
	// tuple never changes, so an entry is written once and the table is
	// append-only: all versions hold slice headers over one backing array, a
	// commit appends its inserts past every published length (extend) and a
	// deleted tuple's entry simply stays — no tree of a version without the
	// tuple refers to it, and older versions still read it.
	xext [][2]float64
	// tan[(id−1)·stride + j] places, in the tuple's x-extent, the x of the
	// vertex that attains its key in tree j (tangentByte) — the slope of the
	// dual line keyRule.tangent bounds the value at the query slope by. One
	// byte a tree, stride = 2k bytes a tuple, appended beside xext under the
	// same rule.
	tan    []uint8
	stride int
}

// noExtent is the table entry of an id that is unassigned or whose tuple is
// unsatisfiable: no key of such an id is ever decided.
var noExtent = [2]float64{math.Inf(-1), math.Inf(1)}

// xExtent returns the 2-D tuple's {infX, supX} over its vertices, infinite
// on the side any ray leans to — strictly, where the support matchesVertical
// reads tolerates Eps: with no ray leaving the vertical, rays fire at every
// slope or at none, and only then do the vertices alone carry the surface
// from slope to slope.
func xExtent(t *constraint.Tuple) [2]float64 {
	g := t.Generators()
	if g.IsEmpty() {
		return noExtent
	}
	x := [2]float64{math.Inf(1), math.Inf(-1)}
	for v := g.Vertices(); len(v) > 0; v = v[g.Dim():] {
		x[0], x[1] = min(x[0], v[0]), max(x[1], v[0])
	}
	for r := g.Rays(); len(r) > 0; r = r[g.Dim():] {
		if r[0] < 0 {
			x[0] = math.Inf(-1)
		} else if r[0] > 0 {
			x[1] = math.Inf(1)
		}
	}
	return x
}

// tangentByte quantises xs, an x inside the extent x, to the nearest of 256
// points evenly spaced from infX to supX (tangentX inverts it): within one
// step (supX − infX)/255 of xs, counting the rounding of the quotient. A
// zero-width or unbounded extent, or a NaN xs, gives 0.
func tangentByte(xs float64, x [2]float64) uint8 {
	q := math.Round((xs - x[0]) / (x[1] - x[0]) * 255)
	if !(q > 0) {
		return 0
	}
	return uint8(min(q, 255))
}

// tangentX is the x the byte q places in the extent x, and the step between
// two such points.
func tangentX(q uint8, x [2]float64) (xq, step float64) {
	step = (x[1] - x[0]) / 255
	return x[0] + float64(q)*step, step
}

// appendTangents appends the tangent bytes of the tuple t with extent x at
// every site of geo, in tree order (TOP, BOT per site); all zero for t nil,
// an unassigned id.
func appendTangents(tan []uint8, t *constraint.Tuple, x [2]float64, geo slopeSpace) []uint8 {
	for i := 0; i < geo.sites(); i++ {
		var top, bot uint8
		if t != nil {
			xt, xb, _ := t.Tangents(geo.site(i)[0]) // on error NaN: byte 0
			top, bot = tangentByte(xt, x), tangentByte(xb, x)
		}
		tan = append(tan, top, bot)
	}
	return tan
}

// extend grows the tables, which the prepare pass derived whole for an
// earlier version, to the ids of tuples — gaps (ids deleted since, or that an
// aborted batch burned) get noExtent and zero bytes — and enters the tuples
// past len(xext) with their tangents at the sites of geo: O(inserts), and it
// writes nothing a published version can read.
func (e extents) extend(tuples constraint.View, geo slopeSpace) extents {
	for id := len(e.xext) + 1; id <= tuples.MaxID(); id++ {
		x := noExtent
		t := tuples.Get(constraint.TupleID(id))
		if t != nil {
			x = xExtent(t)
		}
		e.xext = append(e.xext, x)
		e.tan = appendTangents(e.tan, t, x, geo)
	}
	return e
}

// of returns the extent of the tuple with id tid: what the site trees bound
// their children with.
func (e extents) of(tid uint32) [2]float64 { return e.xext[tid-1] }

// checkExtents reports a live word of the version that disagrees with its
// tuples (what refinement checks sure references by), a tuple of the version
// whose table entry is not its extent or whose tangent bytes are not those
// of its vertices at the sites of geo, or an entry of one of the version's
// trees whose tuple's extent its leaf's bound does not hold.
func (rs *rootSet) checkExtents(geo slopeSpace) error {
	for w := 0; w <= rs.tuples.MaxID()>>6+1; w++ {
		var live uint64
		for j := 0; j < 64; j++ {
			if rs.tuples.Get(constraint.TupleID(w<<6+j)) != nil {
				live |= 1 << j
			}
		}
		if got := rs.tuples.LiveWord(w); got != live {
			return fmt.Errorf("core: version %d: live word %d is %#x, the tuples %#x", rs.version, w, got, live)
		}
	}
	if rs.xext == nil {
		return nil
	}
	if len(rs.tan) != len(rs.xext)*rs.stride || rs.stride != 2*geo.sites() {
		return fmt.Errorf("core: version %d: %d tangent bytes at stride %d for %d extents", rs.version, len(rs.tan), rs.stride, len(rs.xext))
	}
	var err error
	rs.tuples.Scan(func(t *constraint.Tuple) bool {
		j := int(t.ID()) - 1
		x := xExtent(t)
		if j >= len(rs.xext) || rs.xext[j] != x { // an entry is a copy of the extent, bit for bit
			err = fmt.Errorf("core: version %d: tuple %d has extent %v, its table entry is not that", rs.version, t.ID(), x)
		} else if want, got := appendTangents(nil, t, x, geo), rs.tan[j*rs.stride:(j+1)*rs.stride]; string(want) != string(got) {
			err = fmt.Errorf("core: version %d: tuple %d has tangent bytes %v, its table entries %v", rs.version, t.ID(), want, got)
		}
		return err == nil
	})
	for j := range rs.trees {
		tr := &rs.trees[j]
		if err != nil {
			break
		}
		verr := tr.VisitLeavesAsc(math.Inf(-1), func(lv btree.LeafView) bool {
			for i := 0; i < lv.Len() && err == nil; i++ {
				tid := lv.TID(i)
				if uint(tid-1) >= uint(len(rs.xext)) {
					err = fmt.Errorf("core: version %d: tree %d holds tuple %d, past the extent table", rs.version, j, tid)
				} else if x := rs.xext[tid-1]; !btree.Holds(lv.Extent(), x) {
					err = fmt.Errorf("core: version %d: tree %d, leaf %d: tuple %d's extent %v outside the leaf's bound %v", rs.version, j, lv.Page, tid, x, lv.Extent())
				}
			}
			return err == nil
		})
		if err == nil {
			err = verr
		}
	}
	return err
}

// tree returns the B⁺-tree serving queries of q's shape at site i.
func (rs *rootSet) tree(i int, q constraint.Query) *btree.Tree { return &rs.trees[treeIndex(i, q)] }

// treeIndex is the index of the tree serving queries of q's shape at site i:
// B^up for EXIST(≥)/ALL(≤), B^down for ALL(≥)/EXIST(≤) (Section 3).
func treeIndex(i int, q constraint.Query) int {
	if q.UsesTop() {
		return 2 * i
	}
	return 2*i + 1
}

// allIDs appends the id of every tuple of this version to buf — the
// candidate set of the paths that have no tree to sweep.
func (rs *rootSet) allIDs(buf []uint32) []uint32 {
	rs.tuples.Scan(func(t *constraint.Tuple) bool {
		buf = append(buf, uint32(t.ID()))
		return true
	})
	return buf
}

// publishLocked freezes the live trees and the relation into a new rootSet
// and publishes it. ext holds the x-extent table to extend: the base
// version's, or one a prepare pass derived (set-up or a handicap rebuild).
// Requires writeMu (or a not-yet-shared index during construction).
func (ix *Index) publishLocked(version uint64, indexed int, ext extents) *rootSet {
	rs := &rootSet{
		version: version,
		trees:   make([]btree.Tree, len(ix.trees)),
		indexed: indexed,
		tuples:  ix.rel.Freeze(),
		live:    ix.rel.Len(),
	}
	if ix.dim == 2 {
		rs.extents = ext.extend(rs.tuples, ix.geo)
	}
	for i, t := range ix.trees {
		rs.trees[i] = t.Handle(t.Meta())
	}
	ix.roots.Store(rs)
	return rs
}

// errSnapshotReleased is returned by every query method of a Snapshot
// after Release.
var errSnapshotReleased = errors.New("core: use of released snapshot")

// Snapshot is a pinned, immutable view of the index: every query it runs
// sees exactly the tuples and tree contents of one committed version,
// regardless of concurrent commits. A Snapshot holds superseded pages of
// later commits in memory until Release — release it promptly
// (SnapshotCensus counts the snapshots still held).
type Snapshot struct {
	ix       *Index
	rs       *rootSet
	released atomic.Bool
	// begun feeds the observer's snapshot-age histogram at Release; set
	// only when an observer is attached (the per-call pinRoots path in
	// Query and friends never pays for it).
	begun time.Time
}

// Snapshot pins the current version for reading. The caller must Release
// it; queries on the index's own methods (Query, QueryBatch, …) manage a
// per-call pin internally.
func (ix *Index) Snapshot() *Snapshot {
	s := &Snapshot{ix: ix, rs: ix.pinRoots()}
	if ix.opt.Observe != nil {
		s.begun = time.Now()
	}
	return s
}

// pinRoots pins the current version and returns its rootSet. The per-call
// read path (Index.Query and friends) uses it directly so a query costs no
// allocation beyond its execCtx — keeping the read-only QueryFlat floor of
// the pre-MVCC layout. Callers must pair it with unpinRoots.
func (ix *Index) pinRoots() *rootSet {
	for {
		rs := ix.roots.Load()
		ix.pool.PinVersion(rs.version)
		if ix.roots.Load() == rs {
			return rs
		}
		// A commit published between the load and the pin: its superseded
		// pages may have been queued (and even freed) before our pin
		// landed, so this pin protects nothing — retry on the new root.
		ix.pool.UnpinVersion(rs.version)
	}
}

func (ix *Index) unpinRoots(rs *rootSet) { ix.pool.UnpinVersion(rs.version) }

// Release unpins the snapshot, allowing pages superseded after its
// version to be reclaimed. Idempotent.
func (s *Snapshot) Release() {
	if s.released.Swap(true) {
		return
	}
	s.ix.pool.UnpinVersion(s.rs.version)
	if o := s.ix.opt.Observe; o != nil && !s.begun.IsZero() {
		o.RecordSnapshotAge(time.Since(s.begun))
	}
}

// Version returns the commit version this snapshot pins (1 is the
// freshly created index).
func (s *Snapshot) Version() uint64 { return s.rs.version }

// Len returns the number of indexed (satisfiable) tuples at this version.
func (s *Snapshot) Len() int { return s.rs.indexed }

// Tuples returns the relation size at this version.
func (s *Snapshot) Tuples() int { return s.rs.live }

// guard rejects use after Release.
func (s *Snapshot) guard() error {
	if s.released.Load() {
		return errSnapshotReleased
	}
	return nil
}

// execCtxFor builds the per-query execution state bound to one pinned
// version.
func (ix *Index) execCtxFor(rs *rootSet) *execCtx {
	return &execCtx{rs: rs, rc: &pagestore.ReadCounter{}, obs: ix.opt.Observe}
}

// execCtx builds the per-query execution state bound to this snapshot.
func (s *Snapshot) execCtx() *execCtx { return s.ix.execCtxFor(s.rs) }

// Query executes an ALL or EXIST half-plane selection against this
// snapshot's version.
func (s *Snapshot) Query(q constraint.Query) (Result, error) {
	if err := s.guard(); err != nil {
		return Result{}, err
	}
	return s.ix.query(q, s.execCtx())
}

package core

import (
	"errors"

	"dualcdb/internal/btree"
	"dualcdb/internal/constraint"
	"dualcdb/internal/obs"
	"dualcdb/internal/pagestore"
)

// Commit batches index mutations into one atomic version step. Between
// Begin and Commit every tree mutation is shadowed copy-on-write (pages a
// published version can reach are cloned, never dirtied), so concurrent
// snapshot readers are oblivious to the batch. Commit publishes the new
// root set with a single atomic pointer swap and hands the superseded
// pages to the pool's deferred free list; Abort frees the shadow pages
// and restores the relation to the base version's view, leaving no trace.
//
// A batch is single-writer by construction: Begin holds the index write
// lock until Commit or Abort. Mutating methods return errors without
// cleaning up — after any error the caller must Abort the batch (the
// one-op wrappers Index.Insert/Delete/RebuildHandicaps do exactly that).
type Commit struct {
	ix   *Index
	base *rootSet
	// indexed is this batch's working copy of the base version's count of
	// indexed tuples; it folds into the next rootSet at Commit.
	indexed int
	// ext is what Commit extends by the batch's inserts: the base version's
	// extents, or after a handicap rebuild the tables it derived afresh.
	ext extents
	// inserted and removed count the batch's operations for the observer.
	inserted, removed int
	done              bool

	// Observability (all zero when Options.Observe is nil, and the bare
	// write path stays allocation-free): the commit trace, the open
	// mutation-staging span, the op label the one-op wrappers stamp for
	// the flight recorder, and the first mutation fault — what lets
	// Abort report its cause (fault vs explicit).
	tr      *obs.Trace
	span    obs.SpanTimer
	op      string
	failErr error
}

var errCommitDone = errors.New("core: use of a finished commit batch")

// Begin opens a write batch. It blocks until any other writer finishes;
// the caller must end the batch with Commit or Abort.
func (ix *Index) Begin() *Commit {
	ix.writeMu.Lock()
	base := ix.roots.Load()
	for _, t := range ix.trees {
		t.BeginCOW()
	}
	c := &Commit{ix: ix, base: base, indexed: base.indexed, ext: base.extents}
	if o := ix.opt.Observe; o != nil {
		c.tr = o.StartCommit()
		c.span = c.beginSpan(obs.StageStaging)
	}
	return c
}

// beginSpan opens one commit-stage span seeded with the pool's current
// clone and reclamation counts. Clones happen only under writeMu —
// which this batch holds — so the counter deltas endSpan records are
// exact per-stage attribution. Free on the bare path: with no trace the
// zero timer comes back and the pool counters are never read.
func (c *Commit) beginSpan(stage obs.Stage) obs.SpanTimer {
	if c.tr == nil {
		return obs.SpanTimer{}
	}
	pool := c.ix.pool
	return c.tr.Begin(stage, pool.CloneCount(), pool.ReclaimedCount())
}

// endSpan closes a commit-stage span with the pool counters now. On the
// bare path the span is the zero timer and End returns immediately, so
// the pool counters are never read and no stage is recorded.
func (c *Commit) endSpan(sp obs.SpanTimer, items int) {
	if c.tr == nil {
		sp.End(0, 0, 0)
		return
	}
	pool := c.ix.pool
	sp.End(pool.CloneCount(), pool.ReclaimedCount(), items)
}

// fail records err as the batch's first mutation fault so Abort can
// report the abort cause to the observer, and returns it unchanged.
func (c *Commit) fail(err error) error {
	if err != nil && c.failErr == nil {
		c.failErr = err
	}
	return err
}

// treeKeys returns the key t is stored under in every live tree, in tree
// order: TOP and BOT at each site.
func (ix *Index) treeKeys(t *constraint.Tuple) []float64 {
	keys := make([]float64, 0, len(ix.trees))
	for i := 0; i < ix.geo.sites(); i++ {
		top, bot := ix.keys(t, i)
		keys = append(keys, top, bot)
	}
	return keys
}

// Insert stages one tuple insertion: the relation takes the tuple
// immediately (Abort restores it) and the trees take it under the
// batch's copy-on-write shadow. On error the caller must Abort; the
// tuple is then removed again, but — as with a plain Relation.Insert
// failure — it keeps its assigned id and cannot be re-inserted. A tuple
// outside the indexable range is refused with ErrTupleRange before the
// relation sees it.
func (c *Commit) Insert(t *constraint.Tuple) (constraint.TupleID, error) {
	if c.done {
		return 0, errCommitDone
	}
	ix := c.ix
	if err := checkRange(t); err != nil {
		return 0, c.fail(err)
	}
	id, err := ix.rel.Insert(t)
	if err != nil {
		return 0, c.fail(err)
	}
	c.inserted++
	if !t.IsSatisfiable() {
		return id, nil // empty extensions match nothing and are not indexed
	}
	keys := ix.treeKeys(t)
	// The trees of E² bound their children by x-extent; the trees in E^d
	// keep no bound.
	sx := btree.NoExtent
	if ix.dim == 2 {
		sx = xExtent(t)
	}
	for j, tr := range ix.trees {
		if err := tr.InsertExt(keys[j], uint32(id), sx); err != nil {
			return id, c.fail(err)
		}
	}
	if err := ix.mergeHandicaps(t, keys); err != nil {
		return id, c.fail(err)
	}
	c.indexed++
	return id, nil
}

// Delete stages one tuple removal. Handicap slots are left conservatively
// stale (sound; costs only I/O) until RebuildHandicaps recomputes them.
// On error the caller must Abort.
func (c *Commit) Delete(id constraint.TupleID) error {
	if c.done {
		return errCommitDone
	}
	ix := c.ix
	t, err := ix.rel.Get(id)
	if err != nil {
		return c.fail(err)
	}
	if t.IsSatisfiable() { // exactly the satisfiable tuples are indexed
		keys := ix.treeKeys(t)
		for j, tr := range ix.trees {
			if _, err := tr.Delete(keys[j], uint32(id)); err != nil {
				return c.fail(err)
			}
		}
		c.indexed--
	}
	if err := ix.rel.Delete(id); err != nil {
		return c.fail(err)
	}
	c.removed++
	return nil
}

// RebuildHandicaps recomputes every handicap slot and every child bound
// exactly from the batch's current contents. On error the caller must Abort.
func (c *Commit) RebuildHandicaps() error {
	if c.done {
		return errCommitDone
	}
	ix := c.ix
	// The extent and tangent tables are derived afresh from the live tuples,
	// and the bounds from them: O(N), as the scan below is, and older versions
	// keep the old tables' backing arrays.
	var ext func(uint32) [2]float64
	if ix.dim == 2 {
		c.ext = extents{}.extend(ix.rel.Freeze(), ix.geo)
		ext = c.ext.of
	}
	for _, tr := range ix.trees {
		if err := tr.ResetHandicaps(ext); err != nil {
			return c.fail(err)
		}
	}
	var ts []*constraint.Tuple
	ix.rel.Scan(func(t *constraint.Tuple) bool {
		if t.IsSatisfiable() {
			ts = append(ts, t)
		}
		return true
	})
	var up, down []btree.HandicapMerge
	for i := 0; i < ix.geo.sites(); i++ {
		up, down = up[:0], down[:0]
		for _, t := range ts {
			top, bot := ix.keys(t, i)
			up, down = ix.handicapMerges(up, down, i, t, top, bot)
		}
		if err := ix.foldHandicaps(i, up, down); err != nil {
			return c.fail(err)
		}
	}
	return nil
}

// Commit publishes the batch as the next version: trees close their
// copy-on-write batches, the new root set is swapped in atomically, and
// only then are the superseded pages queued behind the snapshot
// watermark — a reader that pinned the old version keeps every page it
// can reach until it releases. On error the batch is aborted.
func (c *Commit) Commit() error {
	if c.done {
		return errCommitDone
	}
	ix := c.ix
	// The mutation-staging span ends here: every COW clone the batch
	// will make has been made. Zero it so a hypothetical later Abort
	// cannot double-close it.
	c.endSpan(c.span, c.inserted+c.removed)
	c.span = obs.SpanTimer{}

	shadowSpan := c.beginSpan(obs.StageShadow)
	var superseded []pagestore.PageID
	for _, t := range ix.trees {
		superseded = append(superseded, t.CommitCOW()...)
	}
	c.endSpan(shadowSpan, len(superseded))

	publishSpan := c.beginSpan(obs.StagePublish)
	rs := ix.publishLocked(c.base.version+1, c.indexed, c.ext)
	c.endSpan(publishSpan, rs.live)

	reclaimSpan := c.beginSpan(obs.StageReclaim)
	freed := ix.pool.DeferFrees(rs.version, superseded)
	c.endSpan(reclaimSpan, freed)
	c.done = true
	ix.writeMu.Unlock()
	if o := ix.opt.Observe; o != nil {
		o.FinishCommit(c.tr, obs.CommitInfo{
			Op:         c.opLabel(),
			Version:    rs.version,
			Inserts:    c.inserted,
			Deletes:    c.removed,
			Superseded: len(superseded),
		})
	}
	return nil
}

// opLabel names the batch for the flight recorder: the one-op wrappers
// stamp insert/delete/rebuild, everything else is a batch.
func (c *Commit) opLabel() string {
	if c.op == "" {
		return "batch"
	}
	return c.op
}

// Abort discards the batch: shadow pages are freed, the relation is set
// back to the base version's view, and the published root set — which the
// batch never touched — stays current. Tuples staged by Insert keep
// their consumed ids.
func (c *Commit) Abort() error {
	if c.done {
		return nil
	}
	c.done = true
	ix := c.ix
	c.endSpan(c.span, c.inserted+c.removed)
	c.span = obs.SpanTimer{}
	var firstErr error
	for _, t := range ix.trees {
		if err := t.AbortCOW(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	ix.rel.Restore(c.base.tuples, c.base.live)
	ix.writeMu.Unlock()
	if o := ix.opt.Observe; o != nil {
		cause, err := obs.AbortExplicit, c.failErr
		if c.failErr != nil {
			cause = obs.AbortFault
		} else if firstErr != nil {
			err = firstErr
		}
		o.FinishCommit(c.tr, obs.CommitInfo{
			Op:      c.opLabel(),
			Inserts: c.inserted,
			Deletes: c.removed,
			Aborted: true,
			Cause:   cause,
			Err:     err,
		})
	}
	return firstErr
}

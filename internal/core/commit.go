package core

import (
	"errors"

	"dualcdb/internal/btree"
	"dualcdb/internal/constraint"
	"dualcdb/internal/obs"
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
	// mutation-staging span, the clones and frees its child spans (keys,
	// trees, merge) counted, which the staging span leaves out of its own,
	// the op label the one-op wrappers stamp for the flight recorder, and
	// the first mutation fault — what lets Abort report its cause (fault vs
	// explicit).
	tr      *obs.Trace
	span    obs.SpanTimer
	nested  [2]uint64
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

// endSpan closes a commit-stage span with the pool counters now and
// returns the clones and frees it counted. On the bare path the span is the
// zero timer and End returns immediately, so the pool counters are never
// read and no stage is recorded.
func (c *Commit) endSpan(sp obs.SpanTimer, items int) [2]uint64 {
	if c.tr == nil {
		return sp.End(0, 0, 0)
	}
	pool := c.ix.pool
	return sp.End(pool.CloneCount(), pool.ReclaimedCount(), items)
}

// endChild closes a child span of the staging span — keys, trees or merge,
// which an operation runs one after another — and charges its clones and
// frees to it alone: endStaging leaves them out of the staging span's own.
func (c *Commit) endChild(sp obs.SpanTimer, items int) {
	d := c.endSpan(sp, items)
	c.nested[0] += d[0]
	c.nested[1] += d[1]
}

// endStaging closes the mutation-staging span with the clones and frees no
// child span counted — a handicap rebuild's — and zeroes it so it cannot be
// closed twice.
func (c *Commit) endStaging() {
	if c.tr != nil {
		pool := c.ix.pool
		c.span.End(pool.CloneCount()-c.nested[0], pool.ReclaimedCount()-c.nested[1], c.inserted+c.removed)
	}
	c.span = obs.SpanTimer{}
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
// order: TOP and BOT at each site. The keys are written into ix.keyBuf, so
// they hold until the writer's next call.
func (ix *Index) treeKeys(t *constraint.Tuple) []float64 {
	keys := ix.keyBuf[:0]
	for i := 0; i < ix.geo.sites(); i++ {
		top, bot := ix.keys(t, i)
		keys = append(keys, top, bot)
	}
	ix.keyBuf = keys
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
	sp := c.beginSpan(obs.StageKeys)
	keys := ix.treeKeys(t)
	// The trees of E² bound their children by x-extent; the trees in E^d
	// keep no bound.
	sx := btree.NoExtent
	if ix.dim == 2 {
		sx = xExtent(t)
	}
	c.endChild(sp, len(keys))
	sp = c.beginSpan(obs.StageTrees)
	for j, tr := range ix.trees {
		if err := tr.InsertExt(keys[j], uint32(id), sx); err != nil {
			c.endChild(sp, j)
			return id, c.fail(err)
		}
	}
	c.endChild(sp, len(keys))
	sp = c.beginSpan(obs.StageMerge)
	err = ix.mergeHandicaps(t, keys)
	c.endChild(sp, len(keys))
	if err != nil {
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
		sp := c.beginSpan(obs.StageKeys)
		keys := ix.treeKeys(t)
		c.endChild(sp, len(keys))
		sp = c.beginSpan(obs.StageTrees)
		for j, tr := range ix.trees {
			if _, err := tr.Delete(keys[j], uint32(id)); err != nil {
				c.endChild(sp, j)
				return c.fail(err)
			}
		}
		c.endChild(sp, len(keys))
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
	var ts []*constraint.Tuple
	ix.rel.Scan(func(t *constraint.Tuple) bool {
		if t.IsSatisfiable() {
			ts = append(ts, t)
		}
		return true
	})
	if err := ix.setSites(ts, false, ext); err != nil {
		return c.fail(err)
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
	// will make has been made.
	c.endStaging()

	shadowSpan := c.beginSpan(obs.StageShadow)
	// Every tree's superseded ids gather in the writer's buffer;
	// DeferFrees keeps no reference to it.
	superseded := ix.supBuf[:0]
	for _, t := range ix.trees {
		superseded = t.CommitCOWAppend(superseded)
	}
	ix.supBuf = superseded
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
	c.endStaging()
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

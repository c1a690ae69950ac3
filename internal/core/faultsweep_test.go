package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"dualcdb/internal/constraint"
	"dualcdb/internal/geom"
	"dualcdb/internal/obs"
	"dualcdb/internal/pagestore"
)

// The fault sweep: one compact whole-engine history — a build, one-op
// commits, a batch, an abort, a commit beside a pinned snapshot whose release
// reclaims, every kind of selection on a cold pool, a handicap rebuild, Save,
// Open and a second Save over the reopened index — runs once clean, counting
// the store operations of each kind, and is then replayed once for every n up
// to each count with the n-th operation of that kind failing. The step the
// fault lands in must report it, and must leave the engine's own accounting
// whole: no frame pinned, the snapshot census at what the history holds, no
// stage span left open, the writer lock free. Then the step is retried, and
// after a Save and an Open the answers equal the scan and the store holds
// exactly the live version's pages.

const (
	sweepN        = 60 // tuples bulk-loaded by the history's build
	sweepPool     = 16 // frames: small enough that commits and sweeps reach the store
	sweepWatchdog = 5 * time.Second
)

// faultKinds are the store operations the sweep fails: how a clean run counts
// them off a pool and how a replay arms the n-th one.
var faultKinds = []struct {
	name  string
	count func(pagestore.Stats) uint64
	arm   func(*pagestore.FaultStore, int)
}{
	{"read", func(s pagestore.Stats) uint64 { return s.PhysicalReads }, (*pagestore.FaultStore).FailReadAfter},
	{"write", func(s pagestore.Stats) uint64 { return s.Writes }, (*pagestore.FaultStore).FailWriteAfter},
	{"alloc", func(s pagestore.Stats) uint64 { return s.Allocs }, (*pagestore.FaultStore).FailAllocAfter},
	{"free", func(s pagestore.Stats) uint64 { return s.Frees }, (*pagestore.FaultStore).FailFreeAfter},
}

type sweepStep struct {
	name string
	run  func(h *faultHistory) error
}

// faultHistory is one run of the history over one store.
type faultHistory struct {
	t     *testing.T
	store *pagestore.FaultStore
	obs   *obs.Observer
	ix    *Index
	// pools are every pool the run put over store: the history's op counts
	// are their sums.
	pools []*pagestore.Pool
	snap  *Snapshot // the snapshot the history holds, if any
	// model is the live version's tuples; next numbers the tuples inserted.
	model map[constraint.TupleID]*constraint.Tuple
	next  int
}

func newFaultHistory(t *testing.T) *faultHistory {
	return &faultHistory{
		t:     t,
		store: pagestore.NewFaultStore(pagestore.NewMemStore(pagestore.DefaultPageSize)),
		obs:   obs.New(obs.Options{SlowThreshold: 1}),
	}
}

// sweepTuple is the history's i-th tuple, the same object-for-object in every
// run; every fourth may be unbounded.
func sweepTuple(i int) *constraint.Tuple {
	return randTuple(rand.New(rand.NewSource(int64(7000+i))), i%4 == 0)
}

func sweepSteps() []sweepStep {
	steps := []sweepStep{{"build", (*faultHistory).build}}
	for i := 0; i < 3; i++ {
		steps = append(steps, sweepStep{"insert", (*faultHistory).insert}, sweepStep{"delete", (*faultHistory).delete})
	}
	return append(steps,
		sweepStep{"batch", (*faultHistory).batch},
		sweepStep{"abort", (*faultHistory).abort},
		sweepStep{"insert beside a snapshot", (*faultHistory).pinnedInsert},
		sweepStep{"release the snapshot", (*faultHistory).release},
		sweepStep{"evict", (*faultHistory).evict},
		sweepStep{"query", (*faultHistory).queries},
		sweepStep{"evict", (*faultHistory).evict},
		sweepStep{"query batch", (*faultHistory).queryBatch},
		sweepStep{"evict", (*faultHistory).evict},
		sweepStep{"vertical", (*faultHistory).verticals},
		sweepStep{"evict", (*faultHistory).evict},
		sweepStep{"tuple", (*faultHistory).tuples},
		sweepStep{"rebuild handicaps", (*faultHistory).rebuild},
		sweepStep{"evict", (*faultHistory).evict},
		sweepStep{"save", (*faultHistory).save},
		sweepStep{"open", (*faultHistory).open},
		sweepStep{"query reopened", (*faultHistory).queries},
		sweepStep{"insert reopened", (*faultHistory).insert},
		sweepStep{"save again", (*faultHistory).save},
	)
}

func (h *faultHistory) build() error {
	rel := constraint.NewRelation(2)
	for i := 0; i < sweepN; i++ {
		if _, err := rel.Insert(sweepTuple(i)); err != nil {
			return err
		}
	}
	h.next = sweepN
	ix, err := Build(rel, Options{Slopes: EquiangularSlopes(3), Technique: T2, Store: h.store, PoolPages: sweepPool, Observe: h.obs})
	if err != nil {
		return err
	}
	h.ix, h.pools = ix, append(h.pools, ix.Pool())
	h.model = map[constraint.TupleID]*constraint.Tuple{}
	rel.Scan(func(tp *constraint.Tuple) bool {
		h.model[tp.ID()] = tp
		return true
	})
	return nil
}

func (h *faultHistory) insert() error {
	tp := sweepTuple(h.next)
	h.next++
	id, err := h.ix.Insert(tp)
	if err == nil {
		h.model[id] = tp
	}
	return err
}

// victim is the live tuple a delete takes: the same one in every run.
func (h *faultHistory) victim() constraint.TupleID {
	ids := h.ids()
	return ids[len(ids)/3]
}

func (h *faultHistory) ids() []constraint.TupleID {
	ids := make([]constraint.TupleID, 0, len(h.model))
	for id := range h.model {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

func (h *faultHistory) delete() error {
	id := h.victim()
	err := h.ix.Delete(id)
	if err == nil {
		delete(h.model, id)
	}
	return err
}

// batch inserts two tuples and deletes one in one commit.
func (h *faultHistory) batch() error {
	ins := []*constraint.Tuple{sweepTuple(h.next), sweepTuple(h.next + 1)}
	h.next += 2
	del := h.victim()
	c := h.ix.Begin()
	var ids []constraint.TupleID
	for _, tp := range ins {
		id, err := c.Insert(tp)
		if err != nil {
			c.Abort()
			return err
		}
		ids = append(ids, id)
	}
	if err := c.Delete(del); err != nil {
		c.Abort()
		return err
	}
	if err := c.Commit(); err != nil {
		return err
	}
	for i, id := range ids {
		h.model[id] = ins[i]
	}
	delete(h.model, del)
	return nil
}

// abort stages an insert and a delete and aborts them: Abort frees the
// batch's shadow pages.
func (h *faultHistory) abort() error {
	tp := sweepTuple(h.next)
	h.next++
	c := h.ix.Begin()
	if _, err := c.Insert(tp); err != nil {
		c.Abort()
		return err
	}
	if err := c.Delete(h.victim()); err != nil {
		c.Abort()
		return err
	}
	return c.Abort()
}

// pinnedInsert commits beside a pinned snapshot, which holds the commit's
// superseded pages back from reclamation.
func (h *faultHistory) pinnedInsert() error {
	if h.snap == nil {
		h.snap = h.ix.Snapshot()
	}
	return h.insert()
}

// release drops the snapshot: the reclamation it runs has no error channel,
// and a failure there shows in SnapshotCensus().ReclaimFailures.
func (h *faultHistory) release() error {
	if h.snap != nil {
		h.snap.Release()
		h.snap = nil
	}
	return nil
}

func (h *faultHistory) evict() error { return h.ix.Pool().EvictAll() }

func (h *faultHistory) rebuild() error { return h.ix.RebuildHandicaps() }

func (h *faultHistory) save() error { return h.ix.Save() }

// open reopens the store through a fresh pool; the reopened relation must
// hold the model's tuples under their ids.
func (h *faultHistory) open() error {
	p := pagestore.NewPool(h.store, sweepPool)
	h.pools = append(h.pools, p)
	rel, ix, err := Open(p)
	if err != nil {
		if r := p.Residency(); r.Pinned != 0 {
			return fmt.Errorf("a failed Open left %d frames pinned (%v)", r.Pinned, err)
		}
		return err
	}
	if rel.Len() != len(h.model) {
		return fmt.Errorf("reopened %d tuples, the model holds %d", rel.Len(), len(h.model))
	}
	model := map[constraint.TupleID]*constraint.Tuple{}
	rel.Scan(func(tp *constraint.Tuple) bool {
		if was := h.model[tp.ID()]; was == nil || was.String() != tp.String() {
			err = fmt.Errorf("reopened tuple %d is %v, the model's %v", tp.ID(), tp, was)
		}
		model[tp.ID()] = tp
		return err == nil
	})
	if err != nil {
		return err
	}
	ix.SetObserver(h.obs)
	h.ix, h.model = ix, model
	return nil
}

// compare is the scan's verdict on an answer: an error naming the
// selection, never one that wraps an injected fault.
func (h *faultHistory) compare(what string, got []constraint.TupleID, match func(*constraint.Tuple) (bool, error)) error {
	var want []constraint.TupleID
	for _, id := range h.ids() {
		ok, err := match(h.model[id])
		if err != nil {
			return fmt.Errorf("scan of %s on tuple %d: %v", what, id, err)
		}
		if ok {
			want = append(want, id)
		}
	}
	if !sameIDs(got, want) {
		return fmt.Errorf("%s: got %v, the scan %v", what, got, want)
	}
	return nil
}

// sweepQueries are half-plane selections on a site, inside a strip and
// outside every strip, of both kinds and both directions.
func (h *faultHistory) sweepQueries() []constraint.Query {
	s := h.ix.Slopes()
	return []constraint.Query{
		constraint.Query2(constraint.EXIST, s[1], 3, geom.GE),
		constraint.Query2(constraint.ALL, s[0]+0.05, 10, geom.LE),
		constraint.Query2(constraint.EXIST, -25, -4, geom.LE),
		constraint.Query2(constraint.ALL, 40, -30, geom.GE),
	}
}

func (h *faultHistory) queries() error {
	for _, q := range h.sweepQueries() {
		res, err := h.ix.Query(q)
		if err != nil {
			return err
		}
		if err := h.compare(q.String(), res.IDs, q.Matches); err != nil {
			return err
		}
	}
	return nil
}

func (h *faultHistory) queryBatch() error {
	qs := h.sweepQueries()
	res, err := h.ix.QueryBatch(qs, BatchOptions{Workers: 1})
	if err != nil {
		return err
	}
	for i, q := range qs {
		if err := h.compare("batch "+q.String(), res[i].IDs, q.Matches); err != nil {
			return err
		}
	}
	return nil
}

func (h *faultHistory) verticals() error {
	for _, v := range []struct {
		kind constraint.QueryKind
		op   geom.Op
		c    float64
	}{{constraint.EXIST, geom.GE, 10}, {constraint.ALL, geom.LE, -5}} {
		res, err := h.ix.QueryVertical(v.kind, v.op, v.c)
		if err != nil {
			return err
		}
		match := func(tp *constraint.Tuple) (bool, error) { return matchesVertical(v.kind, v.op, v.c, tp) }
		if err := h.compare(fmt.Sprintf("%v(x %v %v)", v.kind, v.op, v.c), res.IDs, match); err != nil {
			return err
		}
	}
	return nil
}

// tuples runs a generalized-tuple selection of each kind; the vertical
// constraint is applied during refinement only.
func (h *faultHistory) tuples() error {
	for _, c := range []struct {
		kind constraint.QueryKind
		hs   []geom.HalfSpace
	}{
		{constraint.EXIST, []geom.HalfSpace{geom.HalfPlane2(1, 0, 10, geom.GE), geom.HalfPlane2(-0.5, 1, -5, geom.LE)}},
		{constraint.ALL, []geom.HalfSpace{geom.HalfPlane2(-0.2, 1, 60, geom.GE), geom.HalfPlane2(1, 0, -40, geom.LE)}},
	} {
		qt, err := constraint.NewTuple(2, c.hs)
		if err != nil {
			return fmt.Errorf("query tuple: %v", err)
		}
		res, err := h.ix.QueryTuple(c.kind, qt)
		if err != nil {
			return err
		}
		match := func(tp *constraint.Tuple) (bool, error) {
			if c.kind == constraint.ALL {
				return constraint.TupleALL(qt, tp)
			}
			return constraint.TupleEXIST(qt, tp)
		}
		if err := h.compare(fmt.Sprintf("%v(%v)", c.kind, qt), res.IDs, match); err != nil {
			return err
		}
	}
	return nil
}

// ops sums the store operations of one kind over the run's pools.
func (h *faultHistory) ops(count func(pagestore.Stats) uint64) uint64 {
	var n uint64
	for _, p := range h.pools {
		n += count(p.Stats())
	}
	return n
}

// within runs f under the watchdog: a step or a check that does not return
// — a lock kept on an error path, a self-deadlock — fails the test and names
// what hung, instead of waiting out the test binary's timeout. A panic in f
// comes back as an error.
func (h *faultHistory) within(what string, f func() error) error {
	h.t.Helper()
	done := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- fmt.Errorf("panic: %v", r)
			}
		}()
		done <- f()
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(sweepWatchdog):
		h.t.Fatalf("%s: still running after %v: a lock kept on an error path, or a self-deadlock", what, sweepWatchdog)
		return nil
	}
}

// checkAccounting requires what must hold after any step, failed or not: no
// frame pinned, the snapshot census at the snapshots the history holds, no
// stage span left open and the writer lock free.
func (h *faultHistory) checkAccounting(what string) {
	h.t.Helper()
	if h.ix == nil {
		return // a failed build: there is no index
	}
	err := h.within(what+": accounting", func() error {
		if r := h.ix.Pool().Residency(); r.Pinned != 0 {
			return fmt.Errorf("%d frames left pinned", r.Pinned)
		}
		held := 0
		if h.snap != nil {
			held = 1
		}
		if c := h.ix.Pool().SnapshotCensus(); c.Active != held {
			return fmt.Errorf("snapshot census counts %d active, the history holds %d", c.Active, held)
		}
		if n := h.obs.ObserverSnapshot().UnclosedSpans; n != 0 {
			return fmt.Errorf("%d stage spans begun and never ended", n)
		}
		if !h.ix.writeMu.TryLock() {
			return errors.New("the writer lock is held")
		}
		h.ix.writeMu.Unlock()
		return nil
	})
	if err != nil {
		h.t.Fatalf("%s: %v", what, err)
	}
}

// reclaimFailures is the pool's count of failed reclamation frees.
func (h *faultHistory) reclaimFailures() uint64 {
	if h.ix == nil {
		return 0
	}
	return h.ix.Pool().SnapshotCensus().ReclaimFailures
}

// finish ends a run: every held snapshot released and a reclamation rerun
// (which retries what a failed one kept queued), the live answers, then a
// Save and an Open after which the answers equal the scan, the reopened
// index keeps its invariants — its trees, and the extent and tangent tables
// Open derived — and the store holds exactly the reopened version's pages.
func (h *faultHistory) finish(what string) {
	h.t.Helper()
	steps := []sweepStep{
		{"reclaim", func(h *faultHistory) error {
			h.release()
			h.ix.Snapshot().Release()
			if c := h.ix.Pool().SnapshotCensus(); c.DeferredPages != 0 {
				return fmt.Errorf("%d pages still wait for reclamation", c.DeferredPages)
			}
			return nil
		}},
		{"query", (*faultHistory).queries},
		{"save", (*faultHistory).save},
		{"open", (*faultHistory).open},
		{"query", (*faultHistory).queries},
		{"query batch", (*faultHistory).queryBatch},
		{"vertical", (*faultHistory).verticals},
		{"tuple", (*faultHistory).tuples},
		{"invariants", func(h *faultHistory) error { return h.ix.CheckInvariants() }},
		{"store", func(h *faultHistory) error {
			if got, want := h.store.NumAllocated(), storedPages(h.ix); got != want {
				return fmt.Errorf("store holds %d pages; the live version references %d", got, want)
			}
			return nil
		}},
	}
	for _, s := range steps {
		if err := h.within(what+": "+s.name, func() error { return s.run(h) }); err != nil {
			h.t.Fatalf("%s: %s: %v", what, s.name, err)
		}
		h.checkAccounting(what + ": " + s.name)
	}
}

// TestFaultSweep is the sweep over the history of sweepSteps, once per store
// operation of each kind (see the comment at the top of the file), and the
// one error path of a selection no store fault reaches.
func TestFaultSweep(t *testing.T) {
	steps := sweepSteps()
	// The clean run, and each kind's count after each step.
	clean := newFaultHistory(t)
	counts := make([][]uint64, len(faultKinds))
	for i, s := range steps {
		what := fmt.Sprintf("clean run, step %d (%s)", i, s.name)
		if err := clean.within(what, func() error { return s.run(clean) }); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		clean.checkAccounting(what)
		for k, kind := range faultKinds {
			counts[k] = append(counts[k], clean.ops(kind.count))
		}
	}
	clean.finish("clean run")
	for k, kind := range faultKinds {
		t.Logf("%s: %d", kind.name, counts[k][len(steps)-1])
	}

	for k, kind := range faultKinds {
		t.Run(kind.name, func(t *testing.T) {
			total := counts[k][len(steps)-1]
			if total == 0 {
				t.Fatalf("the history does no %s", kind.name)
			}
			for n := 1; n <= int(total); n++ {
				replayFault(t, steps, k, n, counts[k])
			}
		})
	}
	t.Run("tuple predicate", sweepTuplePredicate)
}

// replayFault runs the history with the n-th operation of faultKinds[k]
// failing: every step before the one the clean run's counts place it in must
// succeed, that step must report the fault, and the run must then recover.
func replayFault(t *testing.T, steps []sweepStep, k, n int, counts []uint64) {
	t.Helper()
	kind := faultKinds[k]
	h := newFaultHistory(t)
	kind.arm(h.store, n)
	at, _ := slices.BinarySearch(counts, uint64(n))
	for i, s := range steps[:at+1] {
		what := fmt.Sprintf("%s %d of %d, step %d (%s)", kind.name, n, counts[len(counts)-1], i, s.name)
		failures := h.reclaimFailures()
		err := h.within(what, func() error { return s.run(h) })
		switch {
		case i < at && err != nil:
			t.Fatalf("%s: %v before the fault is due", what, err)
		case i < at:
		case errors.Is(err, pagestore.ErrInjected):
		case err == nil && kind.name == "free" && h.reclaimFailures() > failures:
			// A failed free of reclamation: counted, the page kept queued.
		default:
			t.Fatalf("%s: %v, want the injected fault", what, err)
		}
		h.checkAccounting(what)
		if i < at {
			continue
		}
		if s.name == "save" || s.name == "save again" {
			h.openAfterFailedSave(what)
		}
		h.store.Disarm()
		if err != nil {
			if s.name == "build" { // nothing holds the failed build's pages: start over
				h.store = pagestore.NewFaultStore(pagestore.NewMemStore(pagestore.DefaultPageSize))
			}
			if err := h.within(what+": retry", func() error { return s.run(h) }); err != nil {
				t.Fatalf("%s: retry: %v", what, err)
			}
			h.checkAccounting(what + ": retry")
		}
		h.finish(what)
	}
}

// openAfterFailedSave opens the store a Save failed on, through a pool of its
// own: whatever the failed Save left there, Open must refuse it with nothing
// left pinned, or open it.
func (h *faultHistory) openAfterFailedSave(what string) {
	h.t.Helper()
	err := h.within(what+": open after the failed save", func() error {
		h.store.Disarm()
		p := pagestore.NewPool(h.store, sweepPool)
		if _, _, err := Open(p); err != nil {
			if r := p.Residency(); r.Pinned != 0 {
				return fmt.Errorf("a refused Open left %d frames pinned (%v)", r.Pinned, err)
			}
		}
		return nil
	})
	if err != nil {
		h.t.Fatalf("%s: %v", what, err)
	}
}

// sweepTuplePredicate reaches querytuple's predicate error, which no store
// fault can: a version whose tuples are 3-D, which the 2-D query tuple's
// predicate refuses. The query tuple's one constraint is vertical and the
// index has no vertical pair, so every tuple of the version is a candidate.
// The error must reach the caller with the refine span closed.
func sweepTuplePredicate(t *testing.T) {
	rel := constraint.NewRelation(2)
	for i := 0; i < 20; i++ {
		if _, err := rel.Insert(sweepTuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	o := obs.New(obs.Options{SlowThreshold: 1})
	ix, err := Build(rel, Options{Slopes: EquiangularSlopes(3), Technique: T2, Observe: o})
	if err != nil {
		t.Fatal(err)
	}
	rel3 := constraint.NewRelation(3)
	for i := 0; i < 5; i++ {
		x := float64(i)
		if _, err := rel3.Insert(boxTuple(t, geom.Point{x, 0, 0}, geom.Point{x + 1, 1, 1})); err != nil {
			t.Fatal(err)
		}
	}
	rs := *ix.roots.Load()
	rs.tuples, rs.live = rel3.Freeze(), rel3.Len()
	qt, err := constraint.NewTuple(2, []geom.HalfSpace{geom.HalfPlane2(1, 0, 100, geom.GE)})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []constraint.QueryKind{constraint.EXIST, constraint.ALL} {
		if res, err := ix.queryTuple(kind, qt, ix.execCtxFor(&rs)); err == nil {
			t.Fatalf("%v over 3-D tuples: %v, want the predicate's error", kind, res.IDs)
		}
		if n := o.ObserverSnapshot().UnclosedSpans; n != 0 {
			t.Fatalf("%v: the predicate's error left %d spans open", kind, n)
		}
	}
}

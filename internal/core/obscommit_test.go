package core

import (
	"math/rand"
	"testing"

	"dualcdb/internal/constraint"
	"dualcdb/internal/obs"
)

// TestObservedCommitReconciles is the write-side mirror of
// TestObservedBatchReconciles: after a mix of observed commits (one-op
// wrappers, a multi-op batch, a handicap rebuild, and both abort
// flavors), the per-stage clone/free attribution summed over the flight
// recorder must agree exactly with the pool's ClonePage and
// watermark-reclamation counters, and the observer's stage aggregates
// must agree with both.
func TestObservedCommitReconciles(t *testing.T) {
	ix, o, _ := obsIndex(t, 400, T2)
	rng := rand.New(rand.NewSource(13))
	pool := ix.Pool()

	clones0 := pool.CloneCount()
	reclaimed0 := pool.ReclaimedCount()

	var inserted []constraint.TupleID
	for i := 0; i < 8; i++ {
		id, err := ix.Insert(randTuple(rng, false))
		if err != nil {
			t.Fatal(err)
		}
		inserted = append(inserted, id)
	}
	for _, id := range inserted[:4] {
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	// One multi-op batch: three inserts and a delete published together.
	c := ix.Begin()
	for i := 0; i < 3; i++ {
		if _, err := c.Insert(randTuple(rng, false)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Delete(inserted[4]); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := ix.RebuildHandicaps(); err != nil {
		t.Fatal(err)
	}
	// An explicit abort (staged work discarded by the caller) and a
	// fault abort (mid-batch mutation error forces the rollback).
	c = ix.Begin()
	if _, err := c.Insert(randTuple(rng, false)); err != nil {
		t.Fatal(err)
	}
	if err := c.Abort(); err != nil {
		t.Fatal(err)
	}
	c = ix.Begin()
	if err := c.Delete(constraint.TupleID(1 << 30)); err == nil {
		t.Fatal("expected delete of unknown id to fail")
	}
	if err := c.Abort(); err != nil {
		t.Fatal(err)
	}

	const published, aborted = 14, 2
	cloneDelta := pool.CloneCount() - clones0
	reclaimedDelta := pool.ReclaimedCount() - reclaimed0
	if cloneDelta == 0 || reclaimedDelta == 0 {
		t.Fatalf("commits cloned %d / reclaimed %d pages; reconciliation is vacuous", cloneDelta, reclaimedDelta)
	}

	// Flight recorder: every finished batch retained, spans summing to
	// the pool deltas exactly (clones happen only under the writer lock,
	// and with no snapshot pinned every deferred page frees inside the
	// commit's own reclaim stage).
	recs := o.FlightRecords()
	if len(recs) != published+aborted {
		t.Fatalf("flight recorder has %d records, want %d", len(recs), published+aborted)
	}
	// A published commit has one span of each top stage, and inside its
	// stage span one keys and one trees span an operation (every tuple here
	// is satisfiable, so indexed) and one merge span an insert. An insert or
	// delete clones only inside those children.
	var sumCloned, sumFreed uint64
	ops := map[string]int{}
	for _, r := range recs {
		ops[r.Op]++
		n := map[string]int{}
		for _, sp := range r.Spans {
			sumCloned += sp.Cloned
			sumFreed += sp.Freed
			n[sp.Stage]++
			if sp.Stage == "stage" && sp.Cloned != 0 && r.Op != "rebuild" {
				t.Errorf("%s commit: the stage span keeps %d clones its children did not count", r.Op, sp.Cloned)
			}
		}
		if r.Aborted {
			continue
		}
		staged := r.Inserts + r.Deletes
		want := map[string]int{"stage": 1, "shadow": 1, "publish": 1, "reclaim": 1, "keys": staged, "trees": staged, "merge": r.Inserts}
		for stage, w := range want {
			if n[stage] != w {
				t.Errorf("published %s commit (%d inserts, %d deletes) has %d %s spans, want %d", r.Op, r.Inserts, r.Deletes, n[stage], stage, w)
			}
		}
		if len(r.Spans) != 4+3*r.Inserts+2*r.Deletes {
			t.Errorf("published %s commit has %d spans, want %d", r.Op, len(r.Spans), 4+3*r.Inserts+2*r.Deletes)
		}
	}
	if sumCloned != cloneDelta {
		t.Errorf("span clone sum %d != pool ClonePage delta %d", sumCloned, cloneDelta)
	}
	if sumFreed != reclaimedDelta {
		t.Errorf("span free sum %d != pool reclaimed delta %d", sumFreed, reclaimedDelta)
	}
	want := map[string]int{"insert": 8, "delete": 4, "batch": 3, "rebuild": 1}
	for op, n := range want {
		if ops[op] != n {
			t.Errorf("flight recorder has %d %q commits, want %d", ops[op], op, n)
		}
	}

	// Newest-first ordering: the fault abort finished last.
	if !recs[0].Aborted || recs[0].Cause != string(obs.AbortFault) {
		t.Errorf("newest flight record = %+v, want the fault abort", recs[0])
	}

	// Observer aggregates agree with the same exact counters.
	snap := o.ObserverSnapshot()
	if snap.Commits != published || snap.CommitAborts != aborted {
		t.Errorf("snapshot commits=%d aborts=%d, want %d/%d", snap.Commits, snap.CommitAborts, published, aborted)
	}
	if snap.AbortsFault != 1 || snap.AbortsExplicit != 1 {
		t.Errorf("abort causes fault=%d explicit=%d, want 1/1", snap.AbortsFault, snap.AbortsExplicit)
	}
	var stCloned, stFreed uint64
	for _, st := range snap.CommitStages {
		stCloned += st.Cloned
		stFreed += st.Freed
	}
	if stCloned != cloneDelta || stFreed != reclaimedDelta {
		t.Errorf("stage aggregates cloned=%d freed=%d, want %d/%d", stCloned, stFreed, cloneDelta, reclaimedDelta)
	}
	if got := snap.CommitStages["stage"].Count; got != published+aborted {
		t.Errorf("stage-span count %d, want %d (every batch opens one)", got, published+aborted)
	}
	if got := snap.CommitStages["reclaim"].Count; got != published {
		t.Errorf("reclaim-span count %d, want %d (published commits only)", got, published)
	}

	// With no snapshot pinned, nothing stays deferred.
	census := pool.SnapshotCensus()
	if census.DeferredPages != 0 {
		t.Errorf("reclaim backlog %d pages after quiescence, want 0", census.DeferredPages)
	}
	if census.DeferredTotal != census.Reclaimed {
		t.Errorf("deferred total %d != reclaimed %d with no pins and no failures", census.DeferredTotal, census.Reclaimed)
	}
}

// TestMVCCStatsUnderPin drives the version/watermark gauges through a
// pinned snapshot: while a reader pins the old version, commits must
// grow the reclaim backlog and the version lag; releasing the snapshot
// drains the backlog and records the snapshot's age.
func TestMVCCStatsUnderPin(t *testing.T) {
	ix, o, _ := obsIndex(t, 300, T2)
	rng := rand.New(rand.NewSource(29))

	s := ix.Snapshot()
	for i := 0; i < 3; i++ {
		if _, err := ix.Insert(randTuple(rng, false)); err != nil {
			t.Fatal(err)
		}
	}
	m := ix.MVCCStats()
	if m.PinnedSnapshots != 1 {
		t.Errorf("pinned snapshots = %d, want 1", m.PinnedSnapshots)
	}
	if m.Watermark != s.Version() {
		t.Errorf("watermark = %d, want pinned version %d", m.Watermark, s.Version())
	}
	if m.VersionLag != m.Version-s.Version() || m.VersionLag == 0 {
		t.Errorf("version lag = %d, want %d", m.VersionLag, m.Version-s.Version())
	}
	if m.ReclaimBacklogPages == 0 {
		t.Error("reclaim backlog is 0 while a snapshot pins the old version")
	}
	if m.PagesCloned == 0 {
		t.Error("pages cloned is 0 after COW commits")
	}

	s.Release()
	m = ix.MVCCStats()
	if m.PinnedSnapshots != 0 || m.Watermark != 0 || m.VersionLag != 0 {
		t.Errorf("after release: pins=%d watermark=%d lag=%d, want all 0", m.PinnedSnapshots, m.Watermark, m.VersionLag)
	}
	if m.ReclaimBacklogPages != 0 {
		t.Errorf("after release: backlog = %d pages, want 0", m.ReclaimBacklogPages)
	}
	if m.PagesReclaimed == 0 {
		t.Error("after release: pages reclaimed is 0")
	}
	if got := o.ObserverSnapshot().SnapshotAge.Count; got != 1 {
		t.Errorf("snapshot-age histogram count = %d, want 1", got)
	}
}

// TestNilObserverCommitAddsNoAllocs pins the write-side zero-overhead
// invariant: a commit with Observe nil allocates exactly as many objects
// as one on an index that never had an observer, and detaching restores
// it.
func TestNilObserverCommitAddsNoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	rel := constraint.NewRelation(2)
	for i := 0; i < 200; i++ {
		if _, err := rel.Insert(randTuple(rng, false)); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := Build(rel, Options{Slopes: EquiangularSlopes(3), PoolPages: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	// One deterministic insert+delete commit pair per run: the tuple id
	// advances but the tree returns to the same shape, so the allocation
	// count is steady after warmup.
	commit := func() {
		tup := randTuple(rand.New(rand.NewSource(57)), false)
		id, err := ix.Insert(tup)
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 32; i++ {
		commit()
	}

	bare := testing.AllocsPerRun(100, commit)
	ix.SetObserver(obs.New(obs.Options{Name: "test"}))
	observed := testing.AllocsPerRun(100, commit)
	ix.SetObserver(nil)
	detached := testing.AllocsPerRun(100, commit)
	if detached != bare {
		t.Errorf("detached observer changed commit allocations: bare %.1f, after detach %.1f", bare, detached)
	}
	if observed < bare {
		t.Errorf("observed commit allocated less (%.1f) than bare (%.1f)?", observed, bare)
	}
	t.Logf("commit allocs/op: bare %.1f, observed %.1f", bare, observed)
}

// BenchmarkCommitBare and BenchmarkCommitObserved are the write-side
// perf guard: the observed commits must track the bare ones
// (TestNilObserverCommitAddsNoAllocs pins the bare path's allocations; the
// latency ratio's acceptance bar is 5 %). Each has an /insert and a
// /delete case: an iteration commits an insert and then the delete of the
// tuple it inserted, so the trees keep their size, and times only the
// case's commit.
func BenchmarkCommitBare(b *testing.B)     { benchCommit(b, false) }
func BenchmarkCommitObserved(b *testing.B) { benchCommit(b, true) }

func benchCommit(b *testing.B, observed bool) {
	// The paper's §5 scale (as bench/ builds it): a smaller relation hides
	// every per-commit cost that grows with N.
	_, ix, _ := benchIndex(b, 12000, 4, T2)
	if observed {
		ix.SetObserver(obs.New(obs.Options{Name: "bench"}))
	}
	rng := rand.New(rand.NewSource(97))
	for i := 0; i < 8; i++ {
		id, err := ix.Insert(randTuple(rng, false))
		if err != nil {
			b.Fatal(err)
		}
		if err := ix.Delete(id); err != nil {
			b.Fatal(err)
		}
	}
	for _, op := range []string{"insert", "delete"} {
		b.Run(op, func(b *testing.B) {
			b.ReportAllocs()
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				tup := randTuple(rng, false)
				if op == "insert" {
					b.StartTimer()
				}
				id, err := ix.Insert(tup)
				if err != nil {
					b.Fatal(err)
				}
				if op == "insert" {
					b.StopTimer()
				} else {
					b.StartTimer()
				}
				if err := ix.Delete(id); err != nil {
					b.Fatal(err)
				}
				if op == "delete" {
					b.StopTimer()
				}
			}
		})
	}
}

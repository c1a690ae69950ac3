package core

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"dualcdb/internal/constraint"
	"dualcdb/internal/geom"
	"dualcdb/internal/pagestore"
)

// probeAnswers runs a fixed set of queries through a snapshot and returns
// the answers positionally.
func probeAnswers(t *testing.T, s *Snapshot, qs []constraint.Query) [][]constraint.TupleID {
	t.Helper()
	out := make([][]constraint.TupleID, len(qs))
	for i, q := range qs {
		res, err := s.Query(q)
		if err != nil {
			t.Fatalf("probe %v: %v", q, err)
		}
		out[i] = res.IDs
	}
	return out
}

// TestInsertFaultLeavesSnapshotIntact is the regression test for the old
// partial-update window: an Insert that fails after some trees took the
// new entry must leave queries on the pre-insert state, not half of one.
// Under copy-on-write the failed batch only ever touched shadow pages, so
// aborting is invisible: the published version still answers every query
// exactly as before the attempt.
func TestInsertFaultLeavesSnapshotIntact(t *testing.T) {
	for _, c := range engineCases {
		t.Run(c.name, func(t *testing.T) { testInsertFaultLeavesSnapshotIntact(t, c) })
	}
}

func testInsertFaultLeavesSnapshotIntact(t *testing.T, c engineCase) {
	store := pagestore.NewFaultStore(pagestore.NewMemStore(1024))
	rng := rand.New(rand.NewSource(17))
	rel, ix := buildCase(t, c, rng, 250, store) // two leaves a tree: an insert clones a leaf and its parent

	qs := make([]constraint.Query, 24)
	for i := range qs {
		qs[i] = c.query(rng)
	}
	before := ix.Snapshot()
	defer before.Release()
	want := probeAnswers(t, before, qs)
	tuplesBefore := rel.Len()
	lenBefore := ix.Len()
	verBefore := before.Version()

	// Every copy-on-write page shadow allocates through the store, so
	// failing the n-th allocation kills the insert midway: some trees
	// already took the entry on their shadow pages, others never saw it.
	for _, allocs := range []int{1, 2, 5, 9} {
		store.FailAllocAfter(allocs)
		_, err := ix.Insert(c.tuple(rng, false))
		store.Disarm()
		if !errors.Is(err, pagestore.ErrInjected) {
			t.Fatalf("FailAllocAfter(%d): Insert error = %v, want injected fault", allocs, err)
		}
	}

	if got := rel.Len(); got != tuplesBefore {
		t.Fatalf("relation leaked aborted inserts: %d tuples, want %d", rel.Len(), tuplesBefore)
	}
	if got := ix.Len(); got != lenBefore {
		t.Fatalf("index Len after aborts: %d, want %d", got, lenBefore)
	}
	after := ix.Snapshot()
	defer after.Release()
	if after.Version() != verBefore {
		t.Fatalf("aborted inserts published a version: %d, want %d", after.Version(), verBefore)
	}
	got := probeAnswers(t, after, qs)
	for i := range qs {
		if !sameIDs(got[i], want[i]) {
			t.Fatalf("query %v drifted after aborted inserts: got %v, want %v", qs[i], got[i], want[i])
		}
	}

	// The index stays fully usable: a disarmed insert commits and is seen
	// by new snapshots.
	id, err := ix.Insert(c.tuple(rng, false))
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete(id); err != nil {
		t.Fatal(err)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotStableAcrossCommits quick-checks the reader guarantee over
// random tuple batches: a pinned snapshot answers every probe query
// identically before, between and after concurrent commits, while fresh
// snapshots track the live relation exactly.
func TestSnapshotStableAcrossCommits(t *testing.T) {
	for _, c := range engineCases {
		t.Run(c.name, func(t *testing.T) { testSnapshotStableAcrossCommits(t, c) })
	}
}

func testSnapshotStableAcrossCommits(t *testing.T, c engineCase) {
	rng := rand.New(rand.NewSource(29))
	rel, ix := buildCase(t, c, rng, 200, nil)

	qs := make([]constraint.Query, 30)
	for i := range qs {
		qs[i] = c.query(rng)
	}
	pinned := ix.Snapshot()
	defer pinned.Release()
	if c.scan.Slope != nil {
		// The scan path has no tree to shield it: it must evaluate against
		// the pinned version's frozen tuples, not the live relation.
		res, err := pinned.Query(c.scan)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Path != "scan" || len(res.IDs) == 0 {
			t.Fatalf("%v: path %q with %d results, want a non-empty scan", c.scan, res.Stats.Path, len(res.IDs))
		}
		qs = append(qs, c.scan)
	}
	want := probeAnswers(t, pinned, qs)

	ids := rel.IDs()
	for round := 0; round < 6; round++ {
		// One commit batch per round: a few inserts and deletes.
		b := ix.Begin()
		for i := 0; i < 10; i++ {
			id, err := b.Insert(c.tuple(rng, false))
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		for i := 0; i < 8 && len(ids) > 0; i++ {
			j := rng.Intn(len(ids))
			if err := b.Delete(ids[j]); err != nil {
				t.Fatal(err)
			}
			ids = append(ids[:j], ids[j+1:]...)
		}
		if err := b.Commit(); err != nil {
			t.Fatal(err)
		}

		// The pinned snapshot is frozen mid-churn...
		got := probeAnswers(t, pinned, qs)
		for i := range qs {
			if !sameIDs(got[i], want[i]) {
				t.Fatalf("round %d: pinned snapshot drifted on %v: got %v, want %v",
					round, qs[i], got[i], want[i])
			}
		}
		// ...while a fresh snapshot matches the exhaustive ground truth of
		// the live relation.
		fresh := ix.Snapshot()
		for i := 0; i < 5; i++ {
			q := c.query(rng)
			wantLive, err := q.Eval(rel)
			if err != nil {
				t.Fatal(err)
			}
			res, err := fresh.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if !sameIDs(res.IDs, wantLive) {
				t.Fatalf("round %d: live query %v: got %v, want %v", round, q, res.IDs, wantLive)
			}
		}
		fresh.Release()
	}

	// Release triggers reclamation of everything the pin held back.
	pinned.Release()
	if c := ix.Pool().SnapshotCensus(); c.Active != 0 || c.DeferredPages != 0 {
		t.Fatalf("census after release: %+v", c)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// A released snapshot refuses queries instead of touching pages that
	// may be reclaimed.
	if _, err := pinned.Query(qs[0]); !errors.Is(err, errSnapshotReleased) {
		t.Fatalf("query on released snapshot: %v, want errSnapshotReleased", err)
	}
}

// TestSupersededPagesReclaimed checks the watermark accounting end to
// end: pages superseded while a snapshot is pinned stay allocated, and
// releasing the last snapshot returns the store to its exact baseline —
// no page leaks across insert/delete churn.
func TestSupersededPagesReclaimed(t *testing.T) {
	store := pagestore.NewMemStore(1024)
	rng := rand.New(rand.NewSource(41))
	rel := constraint.NewRelation(2)
	ix, err := New(rel, Options{
		Slopes:    EquiangularSlopes(3),
		Technique: T2,
		Store:     store,
	})
	if err != nil {
		t.Fatal(err)
	}
	baseline := store.NumAllocated()

	var ids []constraint.TupleID
	for i := 0; i < 150; i++ {
		id, err := ix.Insert(randTuple(rng, false))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}

	s := ix.Snapshot()
	if got := ix.StatsSnapshot().Snapshots.Active; got != 1 {
		t.Fatalf("census gauge: Active = %d, want 1", got)
	}
	for _, id := range ids {
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	censusPinned := ix.Pool().SnapshotCensus()
	if censusPinned.DeferredPages == 0 {
		t.Fatal("no deferred pages while a snapshot pins the pre-delete version")
	}
	allocPinned := store.NumAllocated()

	// The pinned version still sweeps the full pre-delete contents.
	if got := s.Len(); got != 150 {
		t.Fatalf("pinned snapshot Len = %d, want 150", got)
	}
	res, err := s.Query(randQuery(rng))
	if err != nil {
		t.Fatal(err)
	}
	_ = res

	s.Release()
	c := ix.Pool().SnapshotCensus()
	if c.Active != 0 || c.DeferredPages != 0 || c.ReclaimFailures != 0 {
		t.Fatalf("census after release: %+v", c)
	}
	if got := store.NumAllocated(); got != allocPinned-censusPinned.DeferredPages {
		t.Fatalf("release freed %d pages, want %d", allocPinned-got, censusPinned.DeferredPages)
	}
	// Inserting then deleting every tuple must return the store to its
	// post-create footprint: the trees collapse back to empty roots and
	// every superseded page is reclaimed.
	if got := store.NumAllocated(); got != baseline {
		t.Fatalf("page leak: %d pages allocated, baseline %d", got, baseline)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCountsTrackRelationAcrossBatches drives random commit batches —
// satisfiable and unsatisfiable inserts, deletes (of tuples the same batch
// inserted, too), aborts — and after each one checks every count a version
// carries against a scan of the relation: nothing but the counter itself
// records how many tuples are indexed, so it has to survive every path.
func TestCountsTrackRelationAcrossBatches(t *testing.T) {
	for _, c := range engineCases {
		t.Run(c.name, func(t *testing.T) { testCountsTrackRelationAcrossBatches(t, c) })
	}
}

func testCountsTrackRelationAcrossBatches(t *testing.T, c engineCase) {
	rng := rand.New(rand.NewSource(53))
	rel, ix := buildCase(t, c, rng, 120, nil)
	unsatisfiable := func() *constraint.Tuple {
		e1 := make([]float64, c.dim)
		e1[0] = 1
		tu, err := constraint.NewTuple(c.dim, []geom.HalfSpace{
			geom.NewHalfSpace(e1, -1, geom.GE), geom.NewHalfSpace(e1, 0, geom.LE), // x₁ ≥ 1 ∧ x₁ ≤ 0
		})
		if err != nil {
			t.Fatal(err)
		}
		return tu
	}
	check := func(step int, how string) {
		t.Helper()
		tuples, indexed := 0, 0
		rel.Scan(func(tu *constraint.Tuple) bool {
			tuples++
			if tu.IsSatisfiable() {
				indexed++
			}
			return true
		})
		s := ix.Snapshot()
		defer s.Release()
		st := ix.StatsSnapshot()
		if ix.Len() != indexed || s.Len() != indexed || st.Indexed != indexed || s.Tuples() != tuples || st.Tuples != tuples {
			t.Fatalf("step %d (%s): Len %d, Snapshot.Len %d, Stats.Indexed %d, want %d; Snapshot.Tuples %d, Stats.Tuples %d, want %d",
				step, how, ix.Len(), s.Len(), st.Indexed, indexed, s.Tuples(), st.Tuples, tuples)
		}
		if err := ix.CheckInvariants(); err != nil {
			t.Fatalf("step %d (%s): %v", step, how, err)
		}
	}
	check(0, "build")

	live := rel.IDs()
	for step := 1; step <= 60; step++ {
		b := ix.Begin()
		staged := append([]constraint.TupleID(nil), live...)
		insert := func(tu *constraint.Tuple) {
			id, err := b.Insert(tu)
			if err != nil {
				t.Fatal(err)
			}
			staged = append(staged, id)
		}
		remove := func(j int) {
			if err := b.Delete(staged[j]); err != nil {
				t.Fatal(err)
			}
			staged = append(staged[:j], staged[j+1:]...)
		}
		for ops := 1 + rng.Intn(5); ops > 0; ops-- {
			switch r := rng.Intn(5); {
			case r == 0:
				insert(unsatisfiable())
			case r <= 2 && len(staged) > 0:
				remove(rng.Intn(len(staged)))
			default:
				insert(c.tuple(rng, false))
			}
		}
		if step%4 == 0 { // a tuple inserted and deleted by one batch
			insert(c.tuple(rng, step%8 == 0))
			remove(len(staged) - 1)
		}
		if rng.Intn(3) == 0 {
			if err := b.Abort(); err != nil {
				t.Fatal(err)
			}
			check(step, "abort")
			continue
		}
		if err := b.Commit(); err != nil {
			t.Fatal(err)
		}
		live = staged
		check(step, "commit")
	}
}

// TestExtentTableAcrossVersions drives the shared, append-only x-extent
// table through everything that can move it — a commit growing it past its
// capacity, an aborted batch burning ids, an insert and delete of one tuple
// in one batch, an unsatisfiable insert, RebuildHandicaps, readers beside a
// writer (run it under -race), Save → Open — and requires every snapshot
// pinned along the way, re-queried after all later commits on the paths
// that decide entries from the table, to answer as the scan of its own
// version does.
func TestExtentTableAcrossVersions(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	store := pagestore.NewMemStore(1024)
	rel := constraint.NewRelation(2)
	for i := 0; i < 64; i++ {
		if _, err := rel.Insert(randTuple(rng, true)); err != nil {
			t.Fatal(err)
		}
	}
	slopes := EquiangularSlopes(3)
	ix, err := Build(rel, Options{Slopes: slopes, Technique: T2, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	var qs []constraint.Query
	for _, a := range []float64{slopes[0] - 0.05, slopes[1] + 0.07, slopes[2] + 0.2, 25, -25} {
		for _, kind := range []constraint.QueryKind{constraint.ALL, constraint.EXIST} {
			for _, op := range []geom.Op{geom.GE, geom.LE} {
				for _, b := range []float64{-30, -5, 10, 40} {
					qs = append(qs, constraint.Query2(kind, a, b, op))
				}
			}
		}
	}

	// A pin is a snapshot with the tuples of its version, its own oracle.
	type pin struct {
		what string
		snap *Snapshot
		ts   []*constraint.Tuple
	}
	var pins []pin
	pinNow := func(what string) {
		p := pin{what: what, snap: ix.Snapshot()}
		rel.Scan(func(tp *constraint.Tuple) bool {
			p.ts = append(p.ts, tp)
			return true
		})
		pins = append(pins, p)
	}
	// verify reports through t.Errorf only: readers call it off the test's
	// goroutine.
	verify := func(p pin) (decided int) {
		for _, q := range qs {
			res, err := p.snap.Query(q)
			if err != nil {
				t.Errorf("%s %v: %v", p.what, q, err)
				return
			}
			var want []constraint.TupleID
			for _, tp := range p.ts {
				if ok, _ := q.Matches(tp); ok {
					want = append(want, tp.ID())
				}
			}
			if !sameIDs(res.IDs, want) {
				t.Errorf("snapshot %q (version %d) %v [%s]: got %v, want %v", p.what, p.snap.Version(), q, res.Stats.Path, res.IDs, want)
				return
			}
			decided += res.Stats.Decided
		}
		return decided
	}
	verifyAll := func() {
		t.Helper()
		for _, p := range pins {
			if verify(p) == 0 {
				t.Errorf("snapshot %q: no entry decided from the table", p.what)
			}
		}
		if t.Failed() {
			t.FailNow()
		}
	}
	insert := func(tp *constraint.Tuple) constraint.TupleID {
		t.Helper()
		id, err := ix.Insert(tp)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	entry := func(id constraint.TupleID) [2]float64 { return ix.roots.Load().xext[id-1] }

	// A commit that grows the table past its capacity: Build sized it exactly.
	built := ix.roots.Load().xext
	if len(built) != 64 || cap(built) != 64 {
		t.Fatalf("built table: len %d cap %d, want 64/64", len(built), cap(built))
	}
	pinNow("built")
	insert(randTuple(rng, false))
	if grown := ix.roots.Load().xext; len(grown) != 65 || &grown[0] == &built[0] {
		t.Fatalf("table after one insert: len %d, moved %v; want 65 on a new array", len(grown), &grown[0] != &built[0])
	}
	pinNow("grown")
	verifyAll()

	// An aborted batch burns ids: their entries must decide nothing.
	b := ix.Begin()
	var burned []constraint.TupleID
	for i := 0; i < 3; i++ {
		id, err := b.Insert(randTuple(rng, false))
		if err != nil {
			t.Fatal(err)
		}
		burned = append(burned, id)
	}
	if err := b.Abort(); err != nil {
		t.Fatal(err)
	}
	kept := randTuple(rng, false)
	if id := insert(kept); id != burned[2]+1 {
		t.Fatalf("id after the aborted batch: %d, want %d", id, burned[2]+1)
	} else if entry(id) != xExtent(kept) {
		t.Fatalf("entry of %d: %v, want %v", id, entry(id), xExtent(kept))
	}
	for _, id := range burned {
		if entry(id) != noExtent {
			t.Fatalf("burned id %d: entry %v, want %v", id, entry(id), noExtent)
		}
	}
	pinNow("after abort")

	// One batch: a tuple inserted and deleted again, an unsatisfiable one,
	// a plain insert and the delete of an old tuple.
	b = ix.Begin()
	gone, err := b.Insert(randTuple(rng, false))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Delete(gone); err != nil {
		t.Fatal(err)
	}
	empty, err := constraint.ParseTuple("x >= 1 && x <= 0", 2)
	if err != nil {
		t.Fatal(err)
	}
	unsat, err := b.Insert(empty)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Insert(randTuple(rng, true)); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete(7); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if entry(unsat) != noExtent {
		t.Fatalf("unsatisfiable id %d: entry %v, want %v", unsat, entry(unsat), noExtent)
	}
	pinNow("same-batch")
	if err := ix.RebuildHandicaps(); err != nil {
		t.Fatal(err)
	}
	pinNow("rebuilt")
	verifyAll()

	// Readers re-query the pinned snapshots while a writer grows the table
	// through several more capacities.
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-done:
					return
				default:
					verify(pins[i%len(pins)])
				}
			}
		}()
	}
	live := rel.IDs()
	for i := 0; i < 300; i++ {
		live = append(live, insert(randTuple(rng, i%7 == 0)))
		if i%3 == 0 {
			j := rng.Intn(len(live))
			if err := ix.Delete(live[j]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:j], live[j+1:]...)
		}
	}
	close(done)
	wg.Wait()
	pinNow("churned")
	verifyAll()
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Save → Open rebuilds the table from the relation: nothing persisted.
	for _, p := range pins {
		p.snap.Release()
	}
	if err := ix.Save(); err != nil {
		t.Fatal(err)
	}
	rel2, ix2, err := Open(pagestore.NewPool(store, 512))
	if err != nil {
		t.Fatal(err)
	}
	reopened := ix2.roots.Load().xext
	if len(reopened) != len(ix.roots.Load().xext) {
		t.Fatalf("reopened table holds %d ids, live one %d", len(reopened), len(ix.roots.Load().xext))
	}
	for i, x := range reopened {
		want := noExtent
		if tp, err := rel2.Get(constraint.TupleID(i + 1)); err == nil {
			want = xExtent(tp)
		}
		if x != want {
			t.Fatalf("reopened entry of id %d: %v, want %v", i+1, x, want)
		}
	}
	rel, ix, pins = rel2, ix2, nil
	pinNow("reopened")
	defer pins[0].snap.Release()
	verifyAll()
}

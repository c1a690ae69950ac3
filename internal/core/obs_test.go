package core

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"dualcdb/internal/constraint"
	"dualcdb/internal/geom"
	"dualcdb/internal/obs"
)

// obsIndex builds a small index of the given technique with a fresh
// observer attached; the slow threshold of 1ns retains every query's
// trace in the ring.
func obsIndex(t *testing.T, n int, tech Technique) (*Index, *obs.Observer, []constraint.Query) {
	t.Helper()
	rng := rand.New(rand.NewSource(91))
	rel := constraint.NewRelation(2)
	for i := 0; i < n; i++ {
		if _, err := rel.Insert(randTuple(rng, false)); err != nil {
			t.Fatal(err)
		}
	}
	o := obs.New(obs.Options{Name: "test", SlowThreshold: 1})
	ix, err := Build(rel, Options{
		Slopes:    EquiangularSlopes(3),
		Technique: tech,
		PoolPages: 1 << 14,
		Observe:   o,
	})
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]constraint.Query, 48)
	for i := range queries {
		queries[i] = randQuery(rng)
	}
	return ix, o, queries
}

// TestObservedBatchReconciles is the acceptance check of the observability
// layer: after an observed QueryBatch, the observer's aggregates must agree
// exactly with the per-result QueryStats and with the pool's physical-read
// counter, and the per-span page attribution must sum to each query's
// exact PagesRead.
func TestObservedBatchReconciles(t *testing.T) {
	ix, o, queries := obsIndex(t, 800, T2)

	poolBefore := ix.Pool().Stats().PhysicalReads
	// Evict so the batch actually faults pages in (the build warmed the
	// pool); physical reads make the pages-reconciliation non-vacuous.
	if err := ix.Pool().EvictAll(); err != nil {
		t.Fatal(err)
	}
	results, err := ix.QueryBatch(queries, BatchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	poolDelta := ix.Pool().Stats().PhysicalReads - poolBefore

	var wantPages, gotCand, gotRes, gotFalse, gotDecided, gotDup, gotLeaves uint64
	for _, r := range results {
		wantPages += r.Stats.PagesRead
		gotCand += uint64(r.Stats.Candidates)
		gotRes += uint64(r.Stats.Results)
		gotFalse += uint64(r.Stats.FalseHits)
		gotDecided += uint64(r.Stats.Decided)
		gotDup += uint64(r.Stats.Duplicates)
		gotLeaves += uint64(r.Stats.LeavesSwept)
	}
	if wantPages == 0 {
		t.Fatal("batch read no pages; reconciliation is vacuous")
	}
	// The batch workers are the pool's only readers, and each miss is
	// charged to exactly one query's ReadCounter.
	if poolDelta != wantPages {
		t.Errorf("pool physical reads %d != sum of per-query PagesRead %d", poolDelta, wantPages)
	}

	s := o.ObserverSnapshot()
	if s.Queries != uint64(len(queries)) {
		t.Errorf("observer saw %d queries, want %d", s.Queries, len(queries))
	}
	if s.Batches != 1 {
		t.Errorf("observer saw %d batches, want 1", s.Batches)
	}
	if s.Totals.Count != uint64(len(queries)) {
		t.Errorf("path counts sum to %d, want %d", s.Totals.Count, len(queries))
	}
	if s.Totals.Pages != wantPages {
		t.Errorf("observer pages %d != sum of per-query PagesRead %d", s.Totals.Pages, wantPages)
	}
	if s.Totals.Candidates != gotCand || s.Totals.Results != gotRes ||
		s.Totals.FalseHits != gotFalse || s.Totals.Decided != gotDecided || s.Totals.Duplicates != gotDup ||
		s.Totals.LeavesSwept != gotLeaves {
		t.Errorf("observer totals %+v disagree with result sums (cand %d res %d false %d decided %d dup %d leaves %d)",
			s.Totals, gotCand, gotRes, gotFalse, gotDecided, gotDup, gotLeaves)
	}
	if gotDecided == 0 {
		t.Error("no entry of the batch was decided on its key; the Decided reconciliation is vacuous")
	}
	// Histogram counts must agree with the counters they accompany.
	var histCount uint64
	for name, ps := range s.Paths {
		if ps.Latency.Count != ps.Count {
			t.Errorf("path %s: latency histogram count %d != path count %d", name, ps.Latency.Count, ps.Count)
		}
		histCount += ps.Latency.Count
	}
	if histCount != uint64(len(queries)) {
		t.Errorf("histogram counts sum to %d, want %d", histCount, len(queries))
	}
	// With sequential stages, every physical read happens inside a span,
	// so the per-stage page totals partition the exact query total.
	var stagePages uint64
	for _, st := range s.Stages {
		stagePages += st.Pages
	}
	if stagePages != wantPages {
		t.Errorf("stage span pages %d != sum of per-query PagesRead %d", stagePages, wantPages)
	}

	// Per-trace: each retained trace's span pages sum to its query total.
	traces := o.SlowTraces()
	if len(traces) != len(queries) {
		t.Fatalf("ring retained %d traces, want %d", len(traces), len(queries))
	}
	for _, tr := range traces {
		var sum uint64
		for _, sp := range tr.Spans {
			sum += sp.Pages
		}
		if sum != tr.Pages {
			t.Errorf("trace %q: span pages %d != trace pages %d", tr.Query, sum, tr.Pages)
		}
	}
}

// TestObservedParallelSweepSpansReconcile is the T1 twin of
// TestObservedBatchReconciles: in a batch of parallel queries each T1 query
// records one sweep span per app-query, and those spans' page attribution
// must still partition the query's exact PagesRead.
func TestObservedParallelSweepSpansReconcile(t *testing.T) {
	ix, o, queries := obsIndex(t, 800, T1)

	poolBefore := ix.Pool().Stats().PhysicalReads
	if err := ix.Pool().EvictAll(); err != nil {
		t.Fatal(err)
	}
	results, err := ix.QueryBatch(queries, BatchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	poolDelta := ix.Pool().Stats().PhysicalReads - poolBefore

	var wantPages uint64
	t1Queries := 0
	for _, r := range results {
		wantPages += r.Stats.PagesRead
		if r.Stats.Path == "t1" {
			t1Queries++
		}
	}
	if wantPages == 0 {
		t.Fatal("batch read no pages; reconciliation is vacuous")
	}
	if t1Queries == 0 {
		t.Fatal("no query took the t1 path; no query recorded two sweep spans")
	}
	if poolDelta != wantPages {
		t.Errorf("pool physical reads %d != sum of per-query PagesRead %d", poolDelta, wantPages)
	}

	// Aggregate: stage span pages still partition the exact total.
	s := o.ObserverSnapshot()
	var stagePages uint64
	for _, st := range s.Stages {
		stagePages += st.Pages
	}
	if stagePages != wantPages {
		t.Errorf("stage span pages %d != sum of per-query PagesRead %d", stagePages, wantPages)
	}

	// Per-trace: each trace's span pages sum to its query's exact total,
	// and the t1 traces really did record two sweep spans.
	traces := o.SlowTraces()
	if len(traces) != len(queries) {
		t.Fatalf("ring retained %d traces, want %d", len(traces), len(queries))
	}
	twoSweeps := 0
	for _, tr := range traces {
		var sum uint64
		sweeps := 0
		for _, sp := range tr.Spans {
			sum += sp.Pages
			if sp.Stage == obs.StageSweep.String() {
				sweeps++
			}
		}
		if sum != tr.Pages {
			t.Errorf("trace %q: span pages %d != trace pages %d", tr.Query, sum, tr.Pages)
		}
		if sweeps == 2 {
			twoSweeps++
		}
	}
	if twoSweeps == 0 {
		t.Error("no trace recorded two sweep spans; the parallel-sweep attribution path went unexercised")
	}
}

// TestObservedCompoundQueries checks that line stabs, vertical selections
// and generalized query tuples each record exactly one trace (their
// sub-queries share it) with exact page attribution.
func TestObservedCompoundQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	rel := constraint.NewRelation(2)
	for i := 0; i < 400; i++ {
		if _, err := rel.Insert(randTuple(rng, false)); err != nil {
			t.Fatal(err)
		}
	}
	o := obs.New(obs.Options{SlowThreshold: 1})
	ix, err := Build(rel, Options{
		Slopes:    EquiangularSlopes(3),
		Technique: T2,
		PoolPages: 1 << 14,
		Observe:   o,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Pool().EvictAll(); err != nil {
		t.Fatal(err)
	}

	lineRes, err := ix.QueryLine(0.4, -3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.QueryVertical(constraint.EXIST, geom.GE, 5); err != nil {
		t.Fatal(err)
	}
	window, err := constraint.ParseTuple("x >= -20 && x <= 20 && y >= -20 && y <= 20", 2)
	if err != nil {
		t.Fatal(err)
	}
	tupRes, err := ix.QueryTuple(constraint.EXIST, window)
	if err != nil {
		t.Fatal(err)
	}

	s := o.ObserverSnapshot()
	if s.Queries != 3 {
		t.Fatalf("observer saw %d queries, want 3 (compound queries own a single trace)", s.Queries)
	}
	for _, tr := range o.SlowTraces() {
		var sum uint64
		for _, sp := range tr.Spans {
			sum += sp.Pages
		}
		if sum != tr.Pages {
			t.Errorf("trace %q: span pages %d != trace pages %d", tr.Query, sum, tr.Pages)
		}
	}
	if lineRes.Stats.PagesRead == 0 && tupRes.Stats.PagesRead == 0 {
		t.Error("compound queries read no pages on an evicted pool")
	}
}

// TestFailedQueryClosesRefineSpan pins the error-path span discipline: a
// refinement that aborts on a tuple-fetch error must still End its span, so
// the failed query's trace records the refine stage instead of dropping it. The dangling id comes
// from deleting a tuple after the build — the index still sweeps it up as
// a candidate, and refinement's Relation.Get fails.
func TestFailedQueryClosesRefineSpan(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	rel := constraint.NewRelation(2)
	var last constraint.TupleID
	for i := 0; i < 200; i++ {
		id, err := rel.Insert(randTuple(rng, false))
		if err != nil {
			t.Fatal(err)
		}
		last = id
	}
	o := obs.New(obs.Options{SlowThreshold: 1})
	ix, err := Build(rel, Options{
		Slopes:    EquiangularSlopes(3),
		Technique: T2,
		PoolPages: 1 << 14,
		Observe:   o,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rel.Delete(last); err != nil {
		t.Fatal(err)
	}
	// The MVCC query path reads the relation view frozen in the published
	// root set, so an out-of-band relation mutation is invisible until the
	// next publish. Re-publish to make the id dangle.
	rs := ix.roots.Load()
	ix.publishLocked(rs.version+1, rs.indexed, rs.extents)

	window, err := constraint.ParseTuple(
		"x >= -1000000 && x <= 1000000 && y >= -1000000 && y <= 1000000", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.QueryTuple(constraint.EXIST, window); err == nil {
		t.Fatal("tuple query over a dangling id succeeded; refine error path unexercised")
	}

	// A vertical selection scans the version's tuples, which no longer
	// hold the id: it answers as the exhaustive evaluation does.
	got, err := ix.QueryVertical(constraint.EXIST, geom.GE, -1e6)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := EvalVertical(constraint.EXIST, geom.GE, -1e6, rel); !sameIDs(got.IDs, want) {
		t.Fatalf("vertical query after the delete: got %v, want %v", got.IDs, want)
	}

	failed := 0
	for _, tr := range o.SlowTraces() {
		if tr.Err == "" {
			continue
		}
		failed++
		refines := 0
		for _, sp := range tr.Spans {
			if sp.Stage == obs.StageRefine.String() {
				refines++
			}
		}
		if refines == 0 {
			t.Errorf("failed trace %q has no refine span; the error return dropped it", tr.Query)
		}
	}
	if failed != 1 {
		t.Fatalf("retained %d failed traces, want 1", failed)
	}
}

// TestObservedDocumentShapes pins what a consumer of the debug documents
// and the Prometheus exposition sees after one observed query and one
// observed commit: the exact key set of a /debug/traces entry and of its
// spans, of a /debug/flight commit and of its spans, of the values in
// ObserverSnapshot's stages and commit_stages, and the sorted registry
// names the Prometheus names are derived from.
func TestObservedDocumentShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	o := obs.New(obs.Options{Name: "shape", SlowThreshold: 1})
	_, ix := buildRandomIndex(t, rng, 200, Options{Slopes: EquiangularSlopes(3), Technique: T2, Observe: o}, false)
	if _, err := ix.Query(randQuery(rng)); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Insert(randTuple(rng, false)); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(obs.DebugMux(nil, o))
	defer srv.Close()
	get := func(path string, v any) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	keys := func(m map[string]any) string {
		var ks []string
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return strings.Join(ks, " ")
	}
	// first returns the single-entry list's element and its first span.
	first := func(what string, list []map[string]any) (map[string]any, map[string]any) {
		t.Helper()
		if len(list) != 1 {
			t.Fatalf("%s: %d entries, want 1", what, len(list))
		}
		spans, _ := list[0]["spans"].([]any)
		if len(spans) == 0 {
			t.Fatalf("%s: no spans", what)
		}
		return list[0], spans[0].(map[string]any)
	}
	check := func(what, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s keys:\n got %s\nwant %s", what, got, want)
		}
	}

	var traces []map[string]any
	get("/debug/traces", &traces)
	tr, sp := first("/debug/traces", traces)
	check("trace", keys(tr), "candidates decided duplicates false_hits leaves_swept pages path query results spans start sure tangent total_us")
	check("trace span", keys(sp), "dur_us items pages stage start_us")

	var flight struct {
		Commits []map[string]any `json:"commits"`
	}
	get("/debug/flight", &flight)
	cm, csp := first("/debug/flight", flight.Commits)
	check("flight commit", keys(cm), "cloned deletes freed inserts op spans start superseded total_us version")
	check("flight span", keys(csp), "cloned dur_us freed items stage start_us")

	data, err := json.Marshal(o.ObserverSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Stages       map[string]map[string]any `json:"stages"`
		CommitStages map[string]map[string]any `json:"commit_stages"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	for name, st := range snap.Stages {
		check("stages."+name, keys(st), "count items latency pages")
	}
	for name, st := range snap.CommitStages {
		check("commit_stages."+name, keys(st), "cloned count freed items latency")
	}
	if len(snap.Stages) == 0 || len(snap.CommitStages) != 4 {
		t.Errorf("%d query stages, %d commit stages; want some and 4", len(snap.Stages), len(snap.CommitStages))
	}

	// The Prometheus names are derived from the registry's.
	check("registry", strings.Join(o.Registry().Names(), " "), strings.Join(strings.Fields(`
		batches.latency_ns batches.total commits.aborted commits.aborted.explicit
		commits.aborted.fault commits.clone_fanout commits.inflight commits.latency_ns
		commits.slow commits.superseded_pages commits.total cstage.publish.cloned
		cstage.publish.freed cstage.publish.items cstage.publish.ns cstage.reclaim.cloned
		cstage.reclaim.freed cstage.reclaim.items cstage.reclaim.ns cstage.shadow.cloned
		cstage.shadow.freed cstage.shadow.items cstage.shadow.ns cstage.stage.cloned
		cstage.stage.freed cstage.stage.items cstage.stage.ns mvcc mvcc.snapshot_age_ns
		path.t2.candidates path.t2.count path.t2.decided path.t2.duplicates path.t2.false_hits
		path.t2.leaves_swept path.t2.ns path.t2.pages path.t2.results path.t2.sure path.t2.tangent pool.evictions.old
		pool.evictions.young pool.logical_reads pool.physical_reads pool.residency pool.snapshots
		pool.writes queries.errors queries.inflight queries.slow queries.total spans.unclosed stage.dedup.items
		stage.dedup.ns stage.dedup.pages stage.refine.items stage.refine.ns stage.refine.pages
		stage.route.items stage.route.ns stage.route.pages stage.sweep.items stage.sweep.ns
		stage.sweep.pages stage.sweep2.items stage.sweep2.ns stage.sweep2.pages sweeps
	`), " "))
}

// TestNilObserverAddsNoAllocs pins the zero-overhead invariant: a query
// with Observe nil allocates exactly as many objects as one on an index
// that never had an observer, and attaching/detaching restores it.
func TestNilObserverAddsNoAllocs(t *testing.T) {
	ix, o, queries := obsIndex(t, 400, T2)
	q := queries[0]
	// Warm everything (pool, decode cache, tuple extensions).
	if _, err := ix.Query(q); err != nil {
		t.Fatal(err)
	}

	run := func() {
		if _, err := ix.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	ix.SetObserver(nil)
	bare := steadyAllocs(run)
	ix.SetObserver(o)
	observed := steadyAllocs(run)
	ix.SetObserver(nil)
	detached := steadyAllocs(run)
	if detached != bare {
		t.Errorf("detached observer changed allocations: bare %.1f, after detach %.1f", bare, detached)
	}
	if observed < bare {
		t.Errorf("observed path allocated less (%.1f) than bare (%.1f)?", observed, bare)
	}
	t.Logf("allocs/op: bare %.1f, observed %.1f", bare, observed)
}

// steadyAllocs is the allocation count of a run of f that found its pooled
// scratch waiting: the minimum over single runs, because a sync.Pool may
// drop what was put back (a GC cycle; one Put in four under -race) and the
// run after that allocates a fresh scratch.
func steadyAllocs(f func()) float64 {
	least := math.Inf(1)
	for i := 0; i < 40; i++ {
		least = min(least, testing.AllocsPerRun(1, f))
	}
	return least
}

// BenchmarkQueryBare and BenchmarkQueryObserved are the perf guard the
// nil-hook invariant is judged by: the bare run allocates only the answer
// and its stats on the warm path (2 allocs/op), and the observed run shows
// the cost of full tracing. The bare run's sub-benchmarks split the mix by
// path — restricted, t2 and t2(outside) — and report the entries the sweeps
// retrieve per query (entries/op) and the query time per retrieved entry
// (ns/entry): the sweep kernel's cost on each path.
func BenchmarkQueryBare(b *testing.B) {
	_, ix, queries := benchIndex(b, 2000, 3, T2)
	b.Run("mixed", func(b *testing.B) { benchQueries(b, ix, queries) })
	for _, path := range []string{"restricted", "t2", "t2(outside)"} {
		qs := pathQueries(b, ix, path)
		b.Run(path, func(b *testing.B) { benchQueries(b, ix, qs) })
	}
}

func BenchmarkQueryObserved(b *testing.B) {
	_, ix, queries := benchIndex(b, 2000, 3, T2)
	ix.SetObserver(obs.New(obs.Options{Name: "bench"}))
	benchQueries(b, ix, queries)
}

// benchQueries runs queries round-robin on a warm index, so allocation
// numbers reflect the steady state, not first-touch work, and reports the
// entries retrieved per query and the time per entry.
func benchQueries(b *testing.B, ix *Index, queries []constraint.Query) {
	for _, q := range queries {
		if _, err := ix.Query(q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	entries := 0
	for i := 0; i < b.N; i++ {
		res, err := ix.Query(queries[i%len(queries)])
		if err != nil {
			b.Fatal(err)
		}
		entries += res.Stats.Candidates
	}
	b.StopTimer()
	if entries > 0 {
		b.ReportMetric(float64(entries)/float64(b.N), "entries/op")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(entries), "ns/entry")
	}
}

// pathQueries returns 64 random queries that ix answers on path; a
// restricted query takes its slope from ix's S.
func pathQueries(b *testing.B, ix *Index, path string) []constraint.Query {
	b.Helper()
	rng := rand.New(rand.NewSource(78))
	slopes := ix.geo.(*slopeSet).s
	var qs []constraint.Query
	for tries := 0; len(qs) < 64; tries++ {
		if tries == 1<<14 {
			b.Fatalf("%d random queries gave only %d on path %s", tries, len(qs), path)
		}
		q := randQuery(rng)
		if path == "restricted" {
			q.Slope[0] = slopes[rng.Intn(len(slopes))]
		}
		res, err := ix.Query(q)
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Path == path {
			qs = append(qs, q)
		}
	}
	return qs
}

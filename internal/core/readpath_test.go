package core

import (
	"math/rand"
	"sync"
	"testing"

	"dualcdb/internal/constraint"
	"dualcdb/internal/geom"
	"dualcdb/internal/pagestore"
	"dualcdb/internal/workload"
)

// pointTuple builds the degenerate tuple {(px, py)}.
func pointTuple(px, py float64) *constraint.Tuple {
	t, err := constraint.NewTuple(2, []geom.HalfSpace{
		{A: []float64{1, 0}, C: -px, Op: geom.LE},
		{A: []float64{-1, 0}, C: px, Op: geom.LE},
		{A: []float64{0, 1}, C: -py, Op: geom.LE},
		{A: []float64{0, -1}, C: py, Op: geom.LE},
	})
	if err != nil {
		panic(err)
	}
	return t
}

// TestBoundaryKeysSpanningLeaves pins the sweep/filter boundary agreement:
// the refinement predicates accept keys within geom.Eps of the query
// intercept b, so the sweeps must start one tolerance before b — keys that
// are within Eps of b can fill whole leaves *before* the leaf that owns b
// itself, and a sweep that starts exactly at b never visits them. With a
// tiny page size the b−δ keys span many leaves, so this fails loudly
// against the historical behaviour of starting the sweep at b.
func TestBoundaryKeysSpanningLeaves(t *testing.T) {
	for _, geo := range []struct {
		name  string
		build func(*constraint.Relation) (*Index, error)
	}{
		{"slopes", func(rel *constraint.Relation) (*Index, error) {
			return Build(rel, Options{Slopes: []float64{-1, 0, 1}, Technique: T2, PageSize: 256})
		}},
		// The same S as sites in E¹: the strips become clamped Voronoi cells.
		{"sites", func(rel *constraint.Relation) (*Index, error) {
			return BuildD(rel, OptionsD{Sites: []geom.Point{{-1}, {0}, {1}}, PageSize: 256})
		}},
	} {
		for _, dir := range []struct {
			name string
			y    float64 // packed boundary cluster, many leaves of equal keys
		}{
			{"asc-cluster-below-b", boundaryB - boundaryDelta},
			{"desc-cluster-above-b", boundaryB + boundaryDelta},
		} {
			t.Run(geo.name+"/"+dir.name, func(t *testing.T) { testBoundaryCluster(t, geo.build, dir.y) })
		}
	}
}

const (
	boundaryB     = 10.0
	boundaryDelta = 5e-10 // < geom.Eps, so b−δ and b+δ both match the filters
)

// testBoundaryCluster indexes a cluster of point tuples at height y through
// build and checks the restricted and T2 paths at intercept boundaryB.
func testBoundaryCluster(t *testing.T, build func(*constraint.Relation) (*Index, error), y float64) {
	const b = boundaryB
	rel := constraint.NewRelation(2)
	// 150 boundary points: with PageSize 256 their TOP/BOT keys
	// occupy several leaves on their own.
	for i := 0; i < 150; i++ {
		if _, err := rel.Insert(pointTuple(float64(i-75), y)); err != nil {
			t.Fatal(err)
		}
	}
	// Interior points on both sides of the boundary so each sweep
	// direction has leaves beyond the cluster.
	for i := 0; i < 30; i++ {
		if _, err := rel.Insert(pointTuple(float64(i), b+2+float64(i))); err != nil {
			t.Fatal(err)
		}
		if _, err := rel.Insert(pointTuple(float64(i), b-2-float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := build(rel)
	if err != nil {
		t.Fatal(err)
	}
	queries := []constraint.Query{
		// Restricted path, slope 0 ∈ S: TOP/BOT of a point (x, y)
		// at slope 0 is y, so the cluster keys sit exactly δ away
		// from the intercept.
		constraint.Query2(constraint.EXIST, 0, b, geom.GE), // asc sweep in B^up
		constraint.Query2(constraint.ALL, 0, b, geom.LE),   // desc sweep in B^up
		constraint.Query2(constraint.ALL, 0, b, geom.GE),   // asc sweep in B^down
		constraint.Query2(constraint.EXIST, 0, b, geom.LE), // desc sweep in B^down
		// T2 handicap path (slope outside S, inside the strips).
		constraint.Query2(constraint.EXIST, 0.01, b, geom.GE),
		constraint.Query2(constraint.ALL, -0.01, b, geom.LE),
	}
	for _, q := range queries {
		want, err := q.Eval(rel)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ix.Query(q)
		if err != nil {
			t.Fatalf("%v: %v", q, err)
		}
		if got.Stats.Path == "scan" {
			t.Fatalf("%v: unexpectedly fell back to scan", q)
		}
		if !sameIDs(got.IDs, want) {
			t.Fatalf("%v [path %s]: got %d ids, want %d (boundary keys missed)",
				q, got.Stats.Path, len(got.IDs), len(want))
		}
	}
}

// TestConcurrentPagesReadAttribution: QueryLine and QueryTuple report
// per-query PagesRead from their own ReadCounter, so under concurrency
// (a) the per-query numbers never exceed the query's serial cold cost, and
// (b) they partition the pool's physical reads exactly. The historical
// pool-stats delta failed both — concurrent queries absorbed each other's
// misses.
func TestConcurrentPagesReadAttribution(t *testing.T) {
	rng := rand.New(rand.NewSource(907))
	rel, ix := buildRandomIndex(t, rng, 300, Options{
		Slopes:    EquiangularSlopes(3),
		Technique: T2,
		PoolPages: 1 << 14,
	}, true)

	type workload struct {
		line bool
		a, b float64 // line params
		kind constraint.QueryKind
		qt   string // query tuple
	}
	cases := []workload{
		{line: true, a: 0.3, b: 4},
		{line: true, a: -1.7, b: -12},
		{kind: constraint.EXIST, qt: "y >= 0.3x - 5 && y <= 2x + 8"},
		{kind: constraint.ALL, qt: "y >= -1.1x - 40 && y <= 0.8x + 30"},
	}
	run := func(w workload) (Result, error) {
		if w.line {
			return ix.QueryLine(w.a, w.b)
		}
		qt, err := constraint.ParseTuple(w.qt, 2)
		if err != nil {
			return Result{}, err
		}
		res, err := ix.QueryTuple(w.kind, qt)
		return Result{IDs: res.IDs, Stats: res.Stats.QueryStats}, err
	}

	// Serial cold baselines (and ground truth).
	wantIDs := make([][]constraint.TupleID, len(cases))
	serial := make([]uint64, len(cases))
	for i, w := range cases {
		if err := ix.Pool().EvictAll(); err != nil {
			t.Fatal(err)
		}
		res, err := run(w)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.PagesRead == 0 {
			t.Fatalf("case %d: serial cold run read no pages", i)
		}
		var truth []constraint.TupleID
		if w.line {
			truth, err = EvalLine(w.a, w.b, rel)
		} else {
			qt, perr := constraint.ParseTuple(w.qt, 2)
			if perr != nil {
				t.Fatal(perr)
			}
			truth, err = EvalTuple(w.kind, qt, rel)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(res.IDs, truth) {
			t.Fatalf("case %d: wrong answer", i)
		}
		wantIDs[i] = truth
		serial[i] = res.Stats.PagesRead
	}

	if err := ix.Pool().EvictAll(); err != nil {
		t.Fatal(err)
	}
	ix.Pool().ResetStats()

	const workers = 8
	const iters = 12
	var wg sync.WaitGroup
	attributed := make([]uint64, workers)
	errs := make(chan error, workers)
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				ci := (wkr + it) % len(cases)
				res, err := run(cases[ci])
				if err != nil {
					errs <- err
					return
				}
				if !sameIDs(res.IDs, wantIDs[ci]) {
					errs <- errMismatch
					return
				}
				if res.Stats.PagesRead > serial[ci] {
					t.Errorf("case %d: concurrent PagesRead %d exceeds serial cold %d (foreign misses attributed)",
						ci, res.Stats.PagesRead, serial[ci])
				}
				attributed[wkr] += res.Stats.PagesRead
			}
		}(wkr)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var sum uint64
	for _, a := range attributed {
		sum += a
	}
	if misses := ix.Pool().Stats().PhysicalReads; sum != misses {
		t.Fatalf("attributed PagesRead sum = %d, pool PhysicalReads = %d (attribution not exact)", sum, misses)
	}
}

// replayReads is a replay's physical reads a query and a commit.
type replayReads struct{ query, commit float64 }

// TestPoolReplayReads is the defence of the pool's replacement rule
// (DESIGN.md §8.2): one fixed stream — N = 12 000 workload.Small tuples,
// k = 4, T2, 64 queries at 10–15 % selectivity (32 EXIST from seed 13, 32
// ALL from seed 14) replayed once to warm the pool and 4 times measured,
// then 200 insert + delete pairs — through a pool of 64 to 512 frames (the
// index has 896 pages). The ceilings are this tree's counts; a rule
// that reads more at any size fails. A single LRU list reads about twice
// as much a query at 512 frames (EXPERIMENTS.md "Read-path ablation").
func TestPoolReplayReads(t *testing.T) {
	rel, err := workload.GenerateRelation(workload.Config{N: 12000, Size: workload.Small, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var queries []constraint.Query
	for _, qc := range []workload.QueryConfig{
		{Count: 32, Kind: constraint.EXIST, SelectivityLo: 0.10, SelectivityHi: 0.15, Seed: 13},
		{Count: 32, Kind: constraint.ALL, SelectivityLo: 0.10, SelectivityHi: 0.15, Seed: 14},
	} {
		qs, err := workload.GenerateQueries(rel, qc)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, qs...)
	}
	fresh, err := workload.GenerateRelation(workload.Config{N: 200, Size: workload.Small, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	var templates [][]geom.HalfSpace
	fresh.Scan(func(tu *constraint.Tuple) bool {
		templates = append(templates, tu.Constraints())
		return true
	})
	for _, c := range []struct {
		frames  int
		ceiling replayReads
	}{
		{64, replayReads{22.33, 22.51}},
		{128, replayReads{15.32, 15.71}},
		{256, replayReads{11.25, 12.14}},
		{512, replayReads{2.57, 7.23}},
	} {
		got := replayPool(t, rel, c.frames, queries, templates)
		if got.query > c.ceiling.query || got.commit > c.ceiling.commit {
			t.Errorf("%d frames: %.4f reads a query, %.4f a commit; ceilings %.2f and %.2f",
				c.frames, got.query, got.commit, c.ceiling.query, c.ceiling.commit)
		}
	}
}

// replayPool builds and saves an index of saved on a fresh MemStore, opens
// it through a pool of the given size and replays the queries (one
// warm pass, four measured) and one insert + delete pair a template, the
// deletes spread over the saved ids. Each size gets its own store, so that
// every replay's commits allocate from the same free space.
func replayPool(t *testing.T, saved *constraint.Relation, frames int, queries []constraint.Query, templates [][]geom.HalfSpace) replayReads {
	t.Helper()
	store := pagestore.NewMemStore(pagestore.DefaultPageSize)
	built, err := Build(saved, Options{Slopes: EquiangularSlopes(4), Technique: T2, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if err := built.Save(); err != nil {
		t.Fatal(err)
	}
	pool := pagestore.NewPool(store, frames)
	rel, ix, err := Open(pool)
	if err != nil {
		t.Fatal(err)
	}
	const passes = 4
	for pass := 0; pass <= passes; pass++ {
		if pass == 1 {
			pool.ResetStats()
		}
		for _, q := range queries {
			if _, err := ix.Query(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	var got replayReads
	got.query = float64(pool.Stats().PhysicalReads) / float64(passes*len(queries))
	pool.ResetStats()
	ids := rel.IDs()
	for i, cons := range templates {
		tu, err := constraint.NewTuple(2, cons)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ix.Insert(tu); err != nil {
			t.Fatal(err)
		}
		if err := ix.Delete(ids[i*len(ids)/len(templates)]); err != nil {
			t.Fatal(err)
		}
	}
	got.commit = float64(pool.Stats().PhysicalReads) / float64(2*len(templates))
	return got
}

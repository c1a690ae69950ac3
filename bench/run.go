package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"dualcdb/internal/constraint"
	"dualcdb/internal/core"
	"dualcdb/internal/obs"
	"dualcdb/internal/pagestore"
)

// config is one invocation's arguments.
type config struct {
	seed    int64
	seconds float64 // measured time: the query phase plus the commit phase
	trace   bool
	short   bool // test scale: N = 500
	outDir  string
	log     io.Writer // the human-readable report
}

// result is what one run of one workload measured.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	fingerprint       uint64
	tracePath         string
}

const (
	setupReps   = 3               // set-ups per run; setup_s is their median
	setupBudget = 6 * time.Second // no further set-up starts after this much
	warmCommits = 100             // untimed commits before the timed ones
	commitBlock = 20              // commits between switches of a traced run's tracing
	batchOps    = 16              // every 10th writer operation is a Begin…Commit of this many
	// writerPace schedules the write_mix writer's commits beside the reader:
	// 100 a second, about a ninth of what the writer alone sustains there. A
	// saturating writer keeps the collector running without pause (each
	// commit copies O(N) bookkeeping), and the reader's median then moved by
	// 20 % between runs.
	writerPace  = 10 * time.Millisecond
	maxReported = 5 // failures printed in full
)

// run is the state of one workload run.
type run struct {
	sp  spec
	cfg config
	in  *inputs
	m   map[string]float64

	tr    *tracer       // nil on untraced runs
	obs   *obs.Observer // nil on untraced runs
	store *timedStore   // nil on untraced runs
	opSeq atomic.Int64  // operation ids of the traced spans

	dir   string // scratch directory of the file workload
	ix    *core.Index
	rel   *constraint.Relation // the relation ix indexes and the writer mutates
	close func() error         // releases ix's store
	want  [][]constraint.TupleID

	attempted, failed int
	matchCalls        int
	matchTime         time.Duration
	matchAllocs       uint64
}

// runWorkload generates the inputs, sets the index up, measures the query
// and commit phases, checks every answer against the naive scan and returns
// the metrics: the end-to-end ones of an untraced run, or the per-layer ones
// of a traced run.
func runWorkload(sp spec, cfg config) (res *result, err error) {
	if cfg.short {
		sp = sp.short()
	}
	runtime.GC()
	r := &run{sp: sp, cfg: cfg, m: map[string]float64{}}
	if cfg.trace {
		r.tr = newTracer()
		r.obs = obs.New(obs.Options{Name: sp.name})
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	if r.dir, err = os.MkdirTemp(cfg.outDir, "run-"); err != nil {
		return nil, err
	}
	defer func() {
		if r.close != nil {
			if cerr := r.close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		if rerr := os.RemoveAll(r.dir); rerr != nil && err == nil {
			err = rerr
		}
	}()

	root := r.tr.begin("bench.run", 0)
	setup := r.tr.begin("setup", root)
	if r.in, err = generate(sp, cfg.seed, r.tr, setup); err != nil {
		return nil, err
	}
	r.m["workload.gen_relation_s"] = r.in.genRelation.Seconds()
	r.m["workload.gen_queries_s"] = r.in.genQueries.Seconds()
	fingerprint := r.in.fingerprint()
	fmt.Fprintf(cfg.log, "inputs: N=%d queries=%d templates=%d fnv64=%016x\n",
		sp.n, len(r.in.queries), len(r.in.templates), fingerprint)
	if err := r.setUp(setup); err != nil {
		return nil, err
	}
	r.tr.end(setup)

	r.in.rel = nil // only the indexed clone stays live
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.m["live_heap_mb"] = float64(ms.HeapAlloc) / (1 << 20)
	r.m["index_pages"] = float64(r.ix.Pages())
	if err := r.probe(); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := r.batchSpeedup(); err != nil {
			return nil, err
		}
	}

	timed := r.tr.begin("timed", root)
	total := time.Duration(cfg.seconds * float64(time.Second))
	queryBudget := time.Duration(float64(total) * sp.queryShare)
	w := &writer{r: r, rng: rand.New(rand.NewSource(cfg.seed + 3))}
	runtime.GC()
	r.queryPhase(w, queryBudget, timed)
	runtime.GC()
	r.commitPhase(w, total-queryBudget, timed)
	r.tr.end(timed)
	r.attempted += w.attempted
	r.failed += w.failed

	check := r.tr.begin("check", root)
	r.setTracing(false)
	got, err := r.queryAll()
	if err != nil {
		return nil, err
	}
	r.compare("final", tuplesOf(r.rel), got)
	r.attempted++
	if err := r.ix.CheckInvariants(); err != nil {
		r.fail("final: CheckInvariants: %v", err)
	}
	r.tr.end(check)

	if cfg.trace {
		layers := r.tr.begin("layers", root)
		if err := layerReplays(r.m, tuplesOf(r.rel), r.in); err != nil {
			return nil, err
		}
		r.m["constraint.matches_ns"] = ratio(float64(r.matchTime), float64(r.matchCalls))
		r.m["constraint.matches_allocs"] = ratio(float64(r.matchAllocs), float64(r.matchCalls))
		r.tr.end(layers)
	}
	r.tr.end(root)

	res = &result{attempted: r.attempted, failed: r.failed, metrics: r.m, fingerprint: fingerprint}
	if cfg.trace {
		if res.tracePath, err = r.tr.write(cfg.outDir, sp.name, cfg.seed); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func (r *run) fail(format string, args ...any) {
	r.failed++
	if r.failed <= maxReported {
		fmt.Fprintf(r.cfg.log, "FAIL %s: %s\n", r.sp.name, fmt.Sprintf(format, args...))
	}
}

// wrap puts the timing wrapper around a device on traced runs.
func (r *run) wrap(s pagestore.Store) pagestore.Store {
	if !r.cfg.trace {
		return s
	}
	r.store = &timedStore{Store: s}
	return r.store
}

// setTracing switches the engine's observer and the store timing together.
// It must not be called while the write_mix writer runs.
func (r *run) setTracing(on bool) {
	if !r.cfg.trace {
		return
	}
	if on {
		r.ix.SetObserver(r.obs)
	} else {
		r.ix.SetObserver(nil)
	}
	r.store.on.Store(on)
}

// setUp takes the index from inputs in hand to ready several times, each on
// a fresh clone of the relation, keeps the last one and checks its warm-up
// answers against the naive scan. setup_s and its parts are medians.
func (r *run) setUp(parent int) error {
	parts := map[string][]float64{}
	var got [][]constraint.TupleID
	began := time.Now()
	for rep := 0; rep < setupReps && (rep == 0 || time.Since(began) < setupBudget); rep++ {
		if r.close != nil {
			if err := r.close(); err != nil {
				return err
			}
			r.close = nil
		}
		r.ix, r.rel = nil, nil
		rel, err := cloneRelation(r.in.rel)
		if err != nil {
			return err
		}
		runtime.GC()
		t0 := time.Now()
		build, save, open, err := r.setUpOnce(rel, rep, parent)
		if err != nil {
			return fmt.Errorf("set-up %d: %w", rep, err)
		}
		t1 := time.Now()
		sp := r.tr.begin("core.warmup", parent)
		if got, err = r.queryAll(); err != nil {
			return fmt.Errorf("set-up %d warm-up: %w", rep, err)
		}
		r.tr.end(sp)
		for name, d := range map[string]time.Duration{
			"setup_s": time.Since(t0), "core.build_s": build, "core.save_s": save, "core.open_s": open, "core.warmup_s": time.Since(t1),
		} {
			parts[name] = append(parts[name], d.Seconds())
		}
	}
	for name, v := range parts {
		r.m[name] = median(v)
	}
	fmt.Fprintf(r.cfg.log, "set-ups: %d\n", len(parts["setup_s"]))

	r.want = r.compare("warm-up", tuplesOf(r.rel), got)
	return nil
}

// setUpOnce builds the index on rel — and for the file workload saves it,
// closes the file and reopens it with the small pool — and returns how long
// each step took.
func (r *run) setUpOnce(rel *constraint.Relation, rep, parent int) (build, save, open time.Duration, err error) {
	opt := core.Options{Slopes: r.in.slopes, Technique: core.T2, PageSize: pageSize, PoolPages: r.sp.pool}
	t0 := time.Now()
	sp := r.tr.begin("core.build", parent)
	if !r.sp.file {
		if r.cfg.trace {
			opt.Store = r.wrap(pagestore.NewMemStore(pageSize))
		}
		if r.ix, err = core.Build(rel, opt); err != nil {
			return 0, 0, 0, err
		}
		r.rel = rel
		r.tr.end(sp)
		return time.Since(t0), 0, 0, nil
	}

	path := filepath.Join(r.dir, fmt.Sprintf("cold-%d.db", rep))
	fs, err := pagestore.OpenFileStore(path, pageSize)
	if err != nil {
		return 0, 0, 0, err
	}
	opt.Store, opt.PoolPages = r.wrap(fs), warmPool
	ix, err := core.Build(rel, opt)
	if err != nil {
		fs.Close()
		return 0, 0, 0, err
	}
	r.tr.end(sp)
	build = time.Since(t0)

	t0 = time.Now()
	sp = r.tr.begin("core.save", parent)
	if err := ix.Save(); err != nil {
		fs.Close()
		return 0, 0, 0, err
	}
	if err := fs.Close(); err != nil {
		return 0, 0, 0, err
	}
	r.tr.end(sp)
	save = time.Since(t0)

	t0 = time.Now()
	sp = r.tr.begin("core.open", parent)
	if fs, err = pagestore.OpenExistingFileStore(path, pageSize); err != nil {
		return 0, 0, 0, err
	}
	r.close = fs.Close
	pool := pagestore.NewPoolWithOptions(r.wrap(fs), pagestore.PoolOptions{Capacity: r.sp.pool})
	if r.rel, r.ix, err = core.Open(pool); err != nil {
		return 0, 0, 0, err
	}
	r.tr.end(sp)
	return build, save, time.Since(t0), nil
}

// queryAll runs every distinct query once, untimed.
func (r *run) queryAll() ([][]constraint.TupleID, error) {
	got := make([][]constraint.TupleID, len(r.in.queries))
	for i, q := range r.in.queries {
		res, err := r.ix.Query(q)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", q, err)
		}
		got[i] = res.IDs
	}
	return got, nil
}

// compare checks got against the naive Proposition 2.2 scan of tuples and
// returns the scan's answers. The scan is also where constraint.matches_ns
// is measured.
func (r *run) compare(label string, tuples []*constraint.Tuple, got [][]constraint.TupleID) [][]constraint.TupleID {
	want := make([][]constraint.TupleID, len(r.in.queries))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for i, q := range r.in.queries {
		for _, t := range tuples {
			ok, err := q.Matches(t)
			if err != nil {
				r.fail("%s: oracle %v on tuple %d: %v", label, q, t.ID(), err)
				break
			}
			if ok {
				want[i] = append(want[i], t.ID())
			}
		}
	}
	r.matchTime += time.Since(t0)
	runtime.ReadMemStats(&ms1)
	r.matchAllocs += ms1.Mallocs - ms0.Mallocs
	r.matchCalls += len(r.in.queries) * len(tuples)
	for i, q := range r.in.queries {
		slices.Sort(want[i])
		r.attempted++
		if !slices.Equal(got[i], want[i]) {
			r.fail("%s: %v: index returned %d ids, the scan %d", label, q, len(got[i]), len(want[i]))
		}
	}
	return want
}

// probe is the paper's Section 5 protocol on every workload: the pool is
// emptied before each query, so PagesRead is the number of distinct pages
// the query touches. On the warm workloads every page is then loaded back,
// the ones no query touches too, since the writer will.
func (r *run) probe() error {
	pool := r.ix.Pool()
	var pages uint64
	for _, q := range r.in.queries {
		if err := pool.EvictAll(); err != nil {
			return err
		}
		res, err := r.ix.Query(q)
		if err != nil {
			return err
		}
		pages += res.Stats.PagesRead
	}
	r.m["pages_per_query"] = float64(pages) / float64(len(r.in.queries))
	if r.sp.file {
		return nil
	}
	// Both devices hand out ids from 1 upwards, so the live pages are the
	// first NumAllocated ids that exist.
	for id, live := pagestore.PageID(1), pool.Store().NumAllocated(); live > 0; id++ {
		f, err := pool.Get(id)
		if errors.Is(err, pagestore.ErrPageNotFound) {
			continue
		}
		if err != nil {
			return err
		}
		f.Release()
		live--
	}
	return nil
}

// batchSpeedup compares QueryBatch over the distinct queries with the
// serial loop, for about a second.
func (r *run) batchSpeedup() error {
	var serial, batch time.Duration
	for began := time.Now(); serial == 0 || time.Since(began) < time.Second; {
		t0 := time.Now()
		if _, err := r.queryAll(); err != nil {
			return err
		}
		serial += time.Since(t0)
		t0 = time.Now()
		if _, err := r.ix.QueryBatch(r.in.queries, core.BatchOptions{}); err != nil {
			return err
		}
		batch += time.Since(t0)
	}
	r.m["core.batch.speedup"] = ratio(float64(serial), float64(batch))
	return nil
}

// counters is a reading of every cumulative counter the layers keep; the
// difference of two readings attributes the work between them.
type counters map[string]uint64

func (r *run) counters() counters {
	ps := r.ix.Pool().Stats()
	dc := r.ix.DecodeCacheStats()
	st := r.store.counts()
	c := counters{
		"pool.logical": ps.LogicalReads, "pool.physical": ps.PhysicalReads, "pool.writes": ps.Writes,
		"pool.clones": ps.Clones, "pool.evictions": ps.YoungEvictions + ps.OldEvictions,
		"btree.descents": r.ix.SweepStats().Descents,
		"viewcache.hits": dc.Hits, "viewcache.misses": dc.Misses + dc.Invalidations,
		"store.read_calls": st.ReadCalls, "store.read_pages": st.ReadPages, "store.read_ns": st.ReadNs,
		"store.write_calls": st.WriteCalls, "store.write_ns": st.WriteNs,
		"store.alloc_calls": st.AllocCalls, "store.free_calls": st.FreeCalls,
	}
	if s := r.obs.ObserverSnapshot(); s != nil {
		c["obs.queries"], c["obs.commits"] = s.Queries, s.Commits
		for name, sg := range s.Stages {
			c["stage."+name] = sg.Latency.Sum
		}
		for name, sg := range s.CommitStages {
			c["cstage."+name] = sg.Latency.Sum
			c["cstage.cloned"] += sg.Cloned
			c["cstage.freed"] += sg.Freed
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c["mallocs"], c["bytes"] = ms.Mallocs, ms.TotalAlloc
	return c
}

// addDelta accumulates to − from into c.
func (c counters) addDelta(from, to counters) {
	for k, v := range to {
		c[k] += v - from[k]
	}
}

func (c counters) f(name string) float64 { return float64(c[name]) }

// samples are the timed calls of one class of passes (traced or untraced)
// with the engine's own per-query statistics and, on traced runs, the layer
// counters those passes moved.
type samples struct {
	lat   []time.Duration
	stats core.QueryStats // sums; Path is unused
	paths map[string]int
	delta counters
}

func newSamples() *samples { return &samples{paths: map[string]int{}, delta: counters{}} }

// perQueryBest groups the latencies of whole passes by distinct query and
// returns each query's fastest call. On this kind of box a neighbour or a
// garbage collection only ever slows a call down, by up to a third and for
// seconds at a time, so the fastest of a few dozen identical calls is the
// query's own cost: between runs it moved a third as much as the median of
// the same calls (README.md, "Noise").
func perQueryBest(lat []time.Duration, queries int) []time.Duration {
	out := make([]time.Duration, queries)
	for q := range out {
		out[q] = lat[q]
		for i := q + queries; i < len(lat); i += queries {
			if lat[i] < out[q] {
				out[q] = lat[i]
			}
		}
	}
	return out
}

// queryPass times every distinct query once. Emptying the pool (file
// workload) and checking the answer stay outside the timed region.
func (r *run) queryPass(s *samples, parent int, traced, check bool) {
	var before counters
	if r.cfg.trace {
		before = r.counters()
	}
	for i, q := range r.in.queries {
		if r.sp.file {
			if err := r.ix.Pool().EvictAll(); err != nil {
				r.fail("EvictAll: %v", err)
			}
		}
		var st0 storeCounts
		if traced {
			st0 = r.store.counts()
		}
		t0 := time.Now()
		res, err := r.ix.Query(q)
		d := time.Since(t0)
		s.lat = append(s.lat, d)
		if traced {
			r.tr.op("core.query", parent, int(r.opSeq.Add(1)), t0, d, r.store.counts().sub(st0))
		}
		r.attempted++
		if err != nil {
			r.fail("%v: %v", q, err)
			continue
		}
		if check && !slices.Equal(res.IDs, r.want[i]) {
			r.fail("%v: timed call returned %d ids, the scan %d", q, len(res.IDs), len(r.want[i]))
		}
		s.paths[res.Stats.Path]++
		s.stats.Candidates += res.Stats.Candidates
		s.stats.Results += res.Stats.Results
		s.stats.FalseHits += res.Stats.FalseHits
		s.stats.Duplicates += res.Stats.Duplicates
		s.stats.LeavesSwept += res.Stats.LeavesSwept
	}
	if r.cfg.trace {
		s.delta.addDelta(before, r.counters())
	}
}

// queryPhase runs whole passes over the distinct queries for the budget,
// one closed-loop client. On a traced run the passes alternate between
// tracing off and on, which pairs the two inside one process: their ratio
// is obs.trace_overhead. On write_mix the reader then runs beside the
// writer, and those are the calls the query metrics report.
func (r *run) queryPhase(w *writer, budget time.Duration, parent int) {
	sp := r.tr.begin("timed.queries", parent)
	defer r.tr.end(sp)
	quiet := [2]*samples{newSamples(), newSamples()} // tracing off, on
	quietBudget := budget
	if r.sp.writer {
		quietBudget = 0
		if r.cfg.trace {
			quietBudget = budget * 2 / 5
		}
	}
	deadline := time.Now().Add(quietBudget)
	for pass := 0; quietBudget > 0 && (pass < 2 || time.Now().Before(deadline)); pass++ {
		class := 0
		if r.cfg.trace {
			class = pass % 2
		}
		r.setTracing(class == 1)
		r.queryPass(quiet[class], sp, class == 1, true)
	}
	main := quiet[0]
	if r.cfg.trace {
		main = quiet[1]
	}

	backlog := 0
	if r.sp.writer {
		main = newSamples()
		r.setTracing(r.cfg.trace)
		stop, done := make(chan struct{}), make(chan struct{})
		began, commits := time.Now(), 0
		go func() {
			defer close(done)
			// An open-loop schedule: commit k is due k·writerPace after the
			// start, and a writer that has fallen behind commits back to back.
			for due := began; ; due = due.Add(writerPace) {
				select {
				case <-stop:
					return
				case <-time.After(time.Until(due)):
				}
				w.step(sp, r.cfg.trace)
				commits++
			}
		}()
		deadline = time.Now().Add(budget - quietBudget)
		for pass := 0; pass < 1 || time.Now().Before(deadline); pass++ {
			r.queryPass(main, sp, r.cfg.trace, false)
			if b := r.ix.MVCCStats().ReclaimBacklogPages; b > backlog {
				backlog = b
			}
		}
		close(stop)
		<-done
		fmt.Fprintf(r.cfg.log, "writer beside the reader: %d commits, %.1f/s of the %.0f/s scheduled\n",
			commits, float64(commits)/time.Since(began).Seconds(), float64(time.Second)/float64(writerPace))
	}
	r.setTracing(false)

	n := float64(len(main.lat))
	wall := sum(main.lat)
	best := sortedCopy(perQueryBest(main.lat, len(r.in.queries)))
	r.m["query_p50_ms"] = ms(percentile(best, 0.50))
	slow := best[len(best)*9/10:] // the costliest tenth of the distinct queries
	r.m["query_slow_ms"] = ms(sum(slow)) / float64(len(slow))
	r.m["queries_per_s"] = ratio(float64(len(best)), sum(best).Seconds())
	sorted := sortedCopy(main.lat)
	fmt.Fprintf(r.cfg.log, "timed queries: %d calls, %d of each distinct query; over calls %.1f/s, p50 %.4g, p99 %.4g ms (%d samples beyond it)\n",
		len(sorted), len(sorted)/len(r.in.queries), ratio(n, wall.Seconds()), ms(percentile(sorted, 0.50)), ms(percentile(sorted, 0.99)), len(sorted)/100)
	if !r.cfg.trace {
		return
	}

	d := main.delta
	q := d.f("obs.queries")
	var staged float64
	for _, name := range []string{"route", "sweep", "sweep2", "dedup", "refine"} {
		v := ratio(d.f("stage."+name), q)
		r.m["core.stage."+name+"_ns"] = v
		staged += v
	}
	r.m["core.stage.other_ns"] = float64(wall)/n - staged
	r.m["core.query.p99_ms"] = ms(percentile(sorted, 0.99))
	r.m["core.query.per_s"] = ratio(n, wall.Seconds())
	r.m["core.candidates_per_query"] = float64(main.stats.Candidates) / n
	r.m["core.results_per_query"] = float64(main.stats.Results) / n
	r.m["core.false_hits_per_query"] = float64(main.stats.FalseHits) / n
	r.m["core.duplicates_per_query"] = float64(main.stats.Duplicates) / n
	r.m["core.leaves_per_query"] = float64(main.stats.LeavesSwept) / n
	r.m["core.useful_ratio"] = ratio(float64(main.stats.Results), float64(main.stats.Candidates))
	r.m["core.path.t2"] = float64(main.paths["t2"]) / n
	r.m["core.path.t1_fallback"] = float64(main.paths["t1(fallback)"]) / n
	r.m["core.path.restricted"] = float64(main.paths["restricted"]) / n
	r.m["core.mvcc.reclaim_backlog"] = float64(backlog)
	r.m["core.mvcc.read_ratio"] = 0
	if r.sp.writer {
		alone := sortedCopy(perQueryBest(quiet[1].lat, len(r.in.queries)))
		r.m["core.mvcc.read_ratio"] = ratio(r.m["query_p50_ms"], ms(percentile(alone, 0.50)))
	}
	r.m["btree.descents_per_query"] = d.f("btree.descents") / n
	r.m["btree.viewcache_hit_rate"] = ratio(d.f("viewcache.hits"), d.f("viewcache.hits")+d.f("viewcache.misses"))
	r.m["pagestore.store.read_calls"] = d.f("store.read_calls") / n
	r.m["pagestore.store.read_pages"] = d.f("store.read_pages") / n
	r.m["pagestore.store.read_ns"] = ratio(d.f("store.read_ns"), d.f("store.read_calls"))
	r.m["pagestore.pool.logical_reads"] = d.f("pool.logical") / n
	r.m["pagestore.pool.physical_reads"] = d.f("pool.physical") / n
	r.m["pagestore.pool.hit_rate"] = 1 - ratio(d.f("pool.physical"), d.f("pool.logical"))
	r.m["pagestore.pool.evictions"] = d.f("pool.evictions") / n

	off, on := quiet[0], quiet[1]
	r.m["core.allocs_per_query"] = ratio(off.delta.f("mallocs"), float64(len(off.lat)))
	r.m["core.bytes_per_query"] = ratio(off.delta.f("bytes"), float64(len(off.lat)))
	r.m["obs.trace_overhead"] = ratio(float64(sum(on.lat))/float64(len(on.lat)), float64(sum(off.lat))/float64(len(off.lat)))
	fmt.Fprintf(r.cfg.log, "stage spans cover %.1f %% of the mean query wall time (the rest is core.stage.other_ns)\n",
		100*staged/(float64(wall)/n))
}

// commitSamples are the timed commits of one class of blocks.
type commitSamples struct {
	single []time.Duration // one-operation commits
	// blockP50 is the median one-operation commit of each block. The blocks
	// are short enough to see one level of machine noise each, so the
	// quietest block's median is to commits what perQueryBest is to queries.
	blockP50 []time.Duration
	wall     time.Duration // every commit, the Begin…Commit batches included
	n        int
	delta    counters
}

// commitPhase runs the writer alone for the budget after an untimed
// warm-up. A traced run alternates blocks of commits between tracing off
// and on, as the query phase does with passes.
func (r *run) commitPhase(w *writer, budget time.Duration, parent int) {
	sp := r.tr.begin("timed.commits", parent)
	defer r.tr.end(sp)
	warm := warmCommits
	if r.cfg.short {
		warm = 10
	}
	r.setTracing(false)
	for i := 0; i < warm; i++ {
		w.step(sp, false)
	}
	blocks := [2]*commitSamples{{delta: counters{}}, {delta: counters{}}}
	deadline := time.Now().Add(budget)
	for b := 0; b < 2 || time.Now().Before(deadline); b++ {
		class := 0
		if r.cfg.trace {
			class = b % 2
		}
		traced, cs := class == 1, blocks[class]
		r.setTracing(traced)
		var before counters
		if r.cfg.trace {
			before = r.counters()
		}
		first := len(cs.single)
		for i := 0; i < commitBlock; i++ {
			d, single := w.step(sp, traced)
			cs.wall += d
			cs.n++
			if single {
				cs.single = append(cs.single, d)
			}
		}
		cs.blockP50 = append(cs.blockP50, percentile(sortedCopy(cs.single[first:]), 0.50))
		if r.cfg.trace {
			cs.delta.addDelta(before, r.counters())
		}
	}
	r.setTracing(false)

	off := blocks[0]
	sorted := sortedCopy(off.single)
	r.m["commit_p50_ms"] = ms(slices.Min(off.blockP50))
	fmt.Fprintf(r.cfg.log, "timed commits: %d in blocks of %d, of which %d single-operation; over those p50 %.4g, p99 %.4g ms (%d samples beyond it)\n",
		off.n, commitBlock, len(sorted), ms(percentile(sorted, 0.50)), ms(percentile(sorted, 0.99)), len(sorted)/100)
	if !r.cfg.trace {
		return
	}
	r.m["core.commit.p99_ms"] = ms(percentile(sorted, 0.99))
	r.m["core.commit.per_s"] = ratio(float64(off.n), off.wall.Seconds())
	r.m["core.allocs_per_commit"] = ratio(off.delta.f("mallocs"), float64(off.n))

	on := blocks[1]
	d, n := on.delta, float64(on.n)
	var staged float64
	for _, name := range []string{"stage", "shadow", "publish", "reclaim"} {
		v := ratio(d.f("cstage."+name), d.f("obs.commits"))
		r.m["core.cstage."+name+"_ns"] = v
		staged += v
	}
	r.m["core.cstage.other_ns"] = float64(on.wall)/n - staged
	r.m["core.cstage.cloned_per_commit"] = d.f("cstage.cloned") / n
	r.m["core.cstage.freed_per_commit"] = d.f("cstage.freed") / n
	r.m["pagestore.store.write_calls"] = d.f("store.write_calls") / n
	r.m["pagestore.store.write_ns"] = ratio(d.f("store.write_ns"), d.f("store.write_calls"))
	r.m["pagestore.store.alloc_calls"] = d.f("store.alloc_calls") / n
	r.m["pagestore.store.free_calls"] = d.f("store.free_calls") / n
	r.m["pagestore.pool.clones"] = d.f("pool.clones") / n
	r.m["pagestore.pool.writes"] = d.f("pool.writes") / n
	fmt.Fprintf(r.cfg.log, "commit spans cover %.1f %% of the mean commit wall time (the rest is core.cstage.other_ns)\n",
		100*staged/(float64(on.wall)/n))
}

// writer is the seeded stream of commits: half inserts of fresh tuples, half
// deletes of its own earlier inserts, every 10th operation a Begin…Commit
// batch. Its tuples are made before the timed call.
type writer struct {
	r    *run
	rng  *rand.Rand
	next int                  // template cursor
	live []constraint.TupleID // inserted and not yet deleted
	ops  int

	attempted, failed int
}

// writerOp is one staged mutation: an insert of t, or a delete of id.
type writerOp struct {
	t  *constraint.Tuple
	id constraint.TupleID
}

func (w *writer) prepare() (writerOp, error) {
	if len(w.live) > 0 && w.rng.Intn(2) == 0 {
		k := w.rng.Intn(len(w.live))
		id := w.live[k]
		w.live[k] = w.live[len(w.live)-1]
		w.live = w.live[:len(w.live)-1]
		return writerOp{id: id}, nil
	}
	cons := w.r.in.templates[w.next%len(w.r.in.templates)]
	w.next++
	t, err := constraint.NewTuple(2, cons)
	return writerOp{t: t}, err
}

// step commits once and returns the commit's wall time and whether it was a
// single-operation commit.
func (w *writer) step(parent int, traced bool) (time.Duration, bool) {
	w.ops++
	n := 1
	if w.ops%10 == 0 {
		n = batchOps
	}
	ops := make([]writerOp, n)
	for i := range ops {
		var err error
		if ops[i], err = w.prepare(); err != nil {
			w.fail("prepare: %v", err)
			return 0, false
		}
	}
	var st0 storeCounts
	if traced {
		st0 = w.r.store.counts()
	}
	ix := w.r.ix
	var err error
	t0 := time.Now()
	if n == 1 {
		if op := ops[0]; op.t != nil {
			_, err = ix.Insert(op.t)
		} else {
			err = ix.Delete(op.id)
		}
	} else {
		c := ix.Begin()
		for _, op := range ops {
			if op.t != nil {
				_, err = c.Insert(op.t)
			} else {
				err = c.Delete(op.id)
			}
			if err != nil {
				break
			}
		}
		if err != nil {
			c.Abort()
		} else {
			err = c.Commit()
		}
	}
	d := time.Since(t0)
	if traced {
		w.r.tr.op("core.commit", parent, int(w.r.opSeq.Add(1)), t0, d, w.r.store.counts().sub(st0))
	}
	w.attempted++
	if err != nil {
		w.fail("commit of %d operations: %v", n, err)
		return d, n == 1
	}
	for _, op := range ops {
		if op.t != nil {
			w.live = append(w.live, op.t.ID())
		}
	}
	return d, n == 1
}

func (w *writer) fail(format string, args ...any) {
	w.failed++
	if w.failed <= maxReported {
		fmt.Fprintf(w.r.cfg.log, "FAIL %s writer: %s\n", w.r.sp.name, fmt.Sprintf(format, args...))
	}
}

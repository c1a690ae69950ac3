package obs

import (
	"context"
	"log/slog"
	"sort"
	"sync"
	"time"
)

// QueryStats describes how one selection was executed: what the engine
// returns with every answer and what the observer aggregates per path.
// counterNames lists its counters once; counts and add alone name them.
type QueryStats struct {
	// Path is the execution route: "restricted", "t1", "t2", and for a T2
	// query slope outside every cell "t2(outside)" on a slope-set index or
	// "scan" on a site-set one. A failed query has none.
	Path string `json:"path,omitempty"`
	// Candidates is the number of tuple references retrieved from the
	// trees before refinement (T1 counts duplicates once each).
	Candidates int `json:"candidates"`
	// Results is the number of tuples in the final answer.
	Results int `json:"results"`
	// FalseHits is the number of evaluated candidates the predicate
	// rejected: (Candidates − Duplicates − Decided) − (Results − Sure).
	// Candidates a sweep rejected on their key are not false hits.
	FalseHits int `json:"false_hits"`
	// Decided is the number of candidates a sweep settled on their key —
	// into the answer or out of it — without evaluating the predicate; the
	// other Candidates − Duplicates − Decided were evaluated.
	Decided int `json:"decided"`
	// Sure is the number of Decided candidates a sweep put into the answer
	// unevaluated; the other Decided − Sure were rejected on their key.
	Sure int `json:"sure"`
	// Tangent is the number of Decided candidates a tangent line settled:
	// those the x-extent bracket left to the predicate and either the line of
	// the vertex attaining the key or, between two sites, the line through
	// the key of the vertex attaining the surface at the neighbour site
	// decided (T2 only).
	Tangent int `json:"tangent"`
	// Duplicates is the number of tuple references retrieved more than
	// once (only T1 can produce them; T2 is duplicate-free by design).
	Duplicates int `json:"duplicates"`
	// LeavesSwept is the number of leaf pages visited across all sweeps.
	LeavesSwept int `json:"leaves_swept"`
	// LeavesWhole is the number of LeavesSwept whose entries in range a
	// sweep's rule settled all one way — all accepted or all rejected on
	// the leaf's key range and extent — without a per-entry verdict (T2
	// only).
	LeavesWhole int `json:"leaves_whole"`
	// PagesRead is the number of physical page reads this query's own
	// tree traversals triggered, counted exactly via a per-query read
	// counter (never a delta on the shared pool counters, which would be
	// racy under concurrent queries). With a cold buffer pool and the
	// query running alone it equals the number of distinct pages touched;
	// in a concurrent batch over a warm shared pool it reports the misses
	// this query itself faulted in — pages another in-flight query loaded
	// first are, by design, charged to that query.
	PagesRead uint64 `json:"pages"`
}

// counterNames are the names of QueryStats' counters — their JSON keys, and
// path.<path>.<name> in the registry — in the order counts returns them and
// add takes them.
var counterNames = [...]string{"pages", "candidates", "results", "false_hits", "decided", "sure", "tangent", "duplicates", "leaves_swept", "leaves_whole"}

const numCounts = len(counterNames)

// counts returns the counters in counterNames' order.
func (s *QueryStats) counts() [numCounts]uint64 {
	return [numCounts]uint64{s.PagesRead, uint64(s.Candidates), uint64(s.Results), uint64(s.FalseHits),
		uint64(s.Decided), uint64(s.Sure), uint64(s.Tangent), uint64(s.Duplicates), uint64(s.LeavesSwept), uint64(s.LeavesWhole)}
}

// add adds c, in counterNames' order, to the counters.
func (s *QueryStats) add(c [numCounts]uint64) {
	s.PagesRead += c[0]
	s.Candidates += int(c[1])
	s.Results += int(c[2])
	s.FalseHits += int(c[3])
	s.Decided += int(c[4])
	s.Sure += int(c[5])
	s.Tangent += int(c[6])
	s.Duplicates += int(c[7])
	s.LeavesSwept += int(c[8])
	s.LeavesWhole += int(c[9])
}

// Add sums every counter of o into s. s keeps its Path: a sum of selections
// is labelled by whoever sums them — a compound query names its own path,
// and the observer's totals have none.
func (s *QueryStats) Add(o QueryStats) { s.add(o.counts()) }

// Options configures an Observer.
type Options struct {
	// Name labels the registry (default "index").
	Name string
	// SlowThreshold routes queries and commits at or above this latency
	// to the slow logs and slow-trace rings. Zero disables both (aborted
	// commits are still retained and logged regardless).
	SlowThreshold time.Duration
	// Logger receives structured slow-query and slow-commit records
	// (nil: traces are still retained in the rings but nothing is
	// logged).
	Logger *slog.Logger
}

// Observer aggregates the observations of one index: global and per-path
// query counters, commit counters, latency histograms, per-stage span
// metrics, the slow-query ring, the commit flight recorder and slow-commit
// ring (each keeps the newest 64 traces), and an optional slog slow log.
// All methods are safe for concurrent use; a nil *Observer is valid
// everywhere and does nothing.
type Observer struct {
	name          string
	reg           *Registry
	slowThreshold time.Duration
	logger        *slog.Logger
	created       time.Time

	queries  *Counter
	slow     *Counter
	errors   *Counter
	inflight *Gauge
	batches  *Counter
	batchNs  *Histogram

	stages [NumStages]stageMetrics
	// unclosed sums, over finished traces, the spans begun and never ended.
	unclosed *Counter

	// Write-path aggregates (commit.go): commit counters, the COW clone
	// fan-out and snapshot-age histograms.
	commits        *Counter
	commitAborts   *Counter
	abortFault     *Counter
	abortExplicit  *Counter
	slowCommits    *Counter
	commitInflight *Gauge
	commitNs       *Histogram
	cloneFanout    *Histogram
	supersededPg   *Histogram
	snapAgeNs      *Histogram

	slowQueries    ring
	flight         ring
	slowCommitRing ring

	mu    sync.RWMutex
	paths map[string]*pathMetrics // guarded by mu
}

// stageMetrics aggregates one stage across all observed queries or
// commits: its latency, the sums of its spans' counter deltas (nil where
// the stage carries one counter) and its payload.
type stageMetrics struct {
	ns       *Histogram
	counters [2]*Counter
	items    *Counter
}

// pathMetrics aggregates one path: its query count, latency and the sums
// of its QueryStats counters, in counterNames' order.
type pathMetrics struct {
	count  *Counter
	ns     *Histogram
	counts [numCounts]*Counter
}

// New builds an Observer. The zero Options is usable: metrics and
// traces accumulate, nothing is logged.
func New(opt Options) *Observer {
	if opt.Name == "" {
		opt.Name = "index"
	}
	o := &Observer{
		name:          opt.Name,
		reg:           NewRegistry(opt.Name),
		slowThreshold: opt.SlowThreshold,
		logger:        opt.Logger,
		created:       time.Now(),
		paths:         make(map[string]*pathMetrics),
	}
	o.queries = o.reg.Counter("queries.total")
	o.slow = o.reg.Counter("queries.slow")
	o.errors = o.reg.Counter("queries.errors")
	o.inflight = o.reg.Gauge("queries.inflight")
	o.batches = o.reg.Counter("batches.total")
	o.batchNs = o.reg.Histogram("batches.latency_ns")
	for s := Stage(0); s < NumStages; s++ {
		prefix, counters := s.metrics()
		name := prefix + s.String() + "."
		m := &o.stages[s]
		m.ns = o.reg.Histogram(name + "ns")
		for i, c := range counters {
			if c != "" {
				m.counters[i] = o.reg.Counter(name + c)
			}
		}
		m.items = o.reg.Counter(name + "items")
	}
	o.unclosed = o.reg.Counter("spans.unclosed")
	o.commits = o.reg.Counter("commits.total")
	o.commitAborts = o.reg.Counter("commits.aborted")
	o.abortFault = o.reg.Counter("commits.aborted.fault")
	o.abortExplicit = o.reg.Counter("commits.aborted.explicit")
	o.slowCommits = o.reg.Counter("commits.slow")
	o.commitInflight = o.reg.Gauge("commits.inflight")
	o.commitNs = o.reg.Histogram("commits.latency_ns")
	o.cloneFanout = o.reg.Histogram("commits.clone_fanout")
	o.supersededPg = o.reg.Histogram("commits.superseded_pages")
	o.snapAgeNs = o.reg.Histogram("mvcc.snapshot_age_ns")
	return o
}

// Registry returns the observer's metric registry, for attaching
// additional gauges (pool residency, cache occupancy).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// StartQuery opens a trace for one query execution. query is a
// human-readable description (constraint.Query.String()). Pair with
// FinishQuery.
func (o *Observer) StartQuery(query string) *Trace {
	if o == nil {
		return nil
	}
	o.inflight.Add(1)
	return newTrace(query)
}

// FinishQuery closes a trace opened by StartQuery, folding the query's
// stats, its error and every recorded stage span into the metric
// registry, and retaining the trace in the slow ring when the total
// latency crosses the threshold.
func (o *Observer) FinishQuery(tr *Trace, st QueryStats, err error) {
	if o == nil || tr == nil {
		return
	}
	o.inflight.Add(-1)
	tr.stats, tr.err = st, err
	spans, _ := o.finish(tr)

	o.queries.Inc()
	if err != nil {
		o.errors.Inc()
	}
	pm := o.path(st.Path)
	pm.count.Inc()
	pm.ns.RecordDuration(tr.total)
	counts := st.counts()
	for i, c := range counts {
		pm.counts[i].Add(c)
	}

	if o.slowThreshold > 0 && tr.total >= o.slowThreshold {
		o.slow.Inc()
		o.slowQueries.add(tr)
		outcome := []slog.Attr{
			slog.String("query", tr.query),
			slog.String("path", st.Path),
			slog.Duration("total", tr.total),
		}
		for i, c := range counts {
			outcome = append(outcome, slog.Uint64(counterNames[i], c))
		}
		o.logSlow("slow query", spans, err, outcome...)
	}
}

// finish finishes tr, counts its unclosed spans and folds its spans into
// the per-stage metrics; it returns the spans and the sums of their counter
// deltas.
func (o *Observer) finish(tr *Trace) ([]Span, [2]uint64) {
	spans, unclosed := tr.finish()
	if unclosed > 0 {
		o.unclosed.Add(uint64(unclosed))
	}
	return spans, o.fold(spans)
}

// fold adds finished spans to the per-stage metrics and returns the sums
// of their counter deltas.
func (o *Observer) fold(spans []Span) (sum [2]uint64) {
	for _, sp := range spans {
		m := &o.stages[sp.Stage]
		m.ns.RecordDuration(sp.Dur)
		for i, c := range m.counters {
			if c != nil {
				c.Add(sp.Delta[i])
			}
			sum[i] += sp.Delta[i]
		}
		if sp.Items > 0 {
			m.items.Add(uint64(sp.Items))
		}
	}
	return sum
}

func (o *Observer) path(name string) *pathMetrics {
	if name == "" {
		name = "unknown"
	}
	o.mu.RLock()
	pm := o.paths[name]
	o.mu.RUnlock()
	if pm != nil {
		return pm
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if pm := o.paths[name]; pm != nil {
		return pm
	}
	prefix := "path." + name + "."
	pm = &pathMetrics{count: o.reg.Counter(prefix + "count"), ns: o.reg.Histogram(prefix + "ns")}
	for i, c := range counterNames {
		pm.counts[i] = o.reg.Counter(prefix + c)
	}
	o.paths[name] = pm
	return pm
}

// logSlow emits one structured record for a slow query or a slow or
// aborted commit: the index, the caller's outcome attributes, the stage
// breakdown as a nested group so log processors can aggregate per stage
// without parsing the trace dump, and the error. No-op without a logger.
func (o *Observer) logSlow(msg string, spans []Span, err error, outcome ...slog.Attr) {
	if o.logger == nil {
		return
	}
	attrs := append([]slog.Attr{slog.String("index", o.name)}, outcome...)
	var stages []any
	for _, sp := range spans {
		_, counters := sp.Stage.metrics()
		group := []any{slog.Duration("dur", sp.Dur)}
		for i, c := range counters {
			if c != "" {
				group = append(group, slog.Uint64(c, sp.Delta[i]))
			}
		}
		stages = append(stages, slog.Group(sp.Stage.String(), append(group, slog.Int("items", sp.Items))...))
	}
	if len(stages) > 0 {
		attrs = append(attrs, slog.Group("stages", stages...))
	}
	if err != nil {
		attrs = append(attrs, slog.String("err", err.Error()))
	}
	o.logger.LogAttrs(context.Background(), slog.LevelWarn, msg, attrs...)
}

// BatchTimer measures one QueryBatch run. The zero value's Done is a
// no-op.
type BatchTimer struct {
	o     *Observer
	start time.Time
}

// StartBatch opens a batch timer; pair with Done.
func (o *Observer) StartBatch() BatchTimer {
	if o == nil {
		return BatchTimer{}
	}
	return BatchTimer{o: o, start: time.Now()}
}

// Done records the batch's wall time.
func (b BatchTimer) Done() {
	if b.o == nil {
		return
	}
	b.o.batches.Inc()
	b.o.batchNs.RecordDuration(time.Since(b.start))
}

// SlowTraces returns the retained slow-query traces, newest first.
func (o *Observer) SlowTraces() []TraceSnapshot {
	if o == nil {
		return nil
	}
	trs := o.slowQueries.traces()
	out := make([]TraceSnapshot, 0, len(trs))
	for _, tr := range trs {
		out = append(out, tr.querySnapshot())
	}
	return out
}

// StageSnapshot aggregates one execution stage across all observed
// queries.
type StageSnapshot struct {
	Count   uint64            `json:"count"`
	Pages   uint64            `json:"pages"`
	Items   uint64            `json:"items"`
	Latency HistogramSnapshot `json:"latency"`
}

// PathSnapshot aggregates one technique route across all observed
// queries: their count, the sums of their QueryStats counters (Path is
// empty: Snapshot.Paths is keyed by it) and their latency.
type PathSnapshot struct {
	Count uint64 `json:"count"`
	QueryStats
	Latency HistogramSnapshot `json:"latency"`
}

// Snapshot is a point-in-time read of everything the observer has
// accumulated.
type Snapshot struct {
	Name         string                   `json:"name"`
	UptimeSec    float64                  `json:"uptime_sec"`
	Queries      uint64                   `json:"queries"`
	Slow         uint64                   `json:"slow"`
	Errors       uint64                   `json:"errors"`
	Inflight     int64                    `json:"inflight"`
	Batches      uint64                   `json:"batches"`
	BatchLatency HistogramSnapshot        `json:"batch_latency"`
	Totals       PathSnapshot             `json:"totals"`
	Paths        map[string]PathSnapshot  `json:"paths"`
	Stages       map[string]StageSnapshot `json:"stages"`
	PathNames    []string                 `json:"-"`
	// UnclosedSpans counts the stage spans finished queries and commits
	// began and never ended: nonzero only if an error path skipped an End.
	UnclosedSpans uint64 `json:"unclosed_spans"`

	// Write-path aggregates. AbortsFault/AbortsExplicit split
	// CommitAborts by cause; CommitStages is keyed by stage name
	// (stage/shadow/publish/reclaim, and stage's keys/trees/merge).
	Commits        uint64                         `json:"commits"`
	CommitAborts   uint64                         `json:"commit_aborts"`
	AbortsFault    uint64                         `json:"aborts_fault"`
	AbortsExplicit uint64                         `json:"aborts_explicit"`
	CommitsSlow    uint64                         `json:"commits_slow"`
	CommitInflight int64                          `json:"commits_inflight"`
	CommitLatency  HistogramSnapshot              `json:"commit_latency"`
	CloneFanout    HistogramSnapshot              `json:"clone_fanout"`
	SnapshotAge    HistogramSnapshot              `json:"snapshot_age"`
	CommitStages   map[string]CommitStageSnapshot `json:"commit_stages"`
}

// ObserverSnapshot reads the observer. Nil-safe: returns nil.
func (o *Observer) ObserverSnapshot() *Snapshot {
	if o == nil {
		return nil
	}
	s := &Snapshot{
		Name:           o.name,
		UptimeSec:      time.Since(o.created).Seconds(),
		Queries:        o.queries.Load(),
		Slow:           o.slow.Load(),
		Errors:         o.errors.Load(),
		Inflight:       o.inflight.Load(),
		Batches:        o.batches.Load(),
		BatchLatency:   o.batchNs.Snapshot(),
		UnclosedSpans:  o.unclosed.Load(),
		Paths:          make(map[string]PathSnapshot),
		Stages:         make(map[string]StageSnapshot),
		Commits:        o.commits.Load(),
		CommitAborts:   o.commitAborts.Load(),
		AbortsFault:    o.abortFault.Load(),
		AbortsExplicit: o.abortExplicit.Load(),
		CommitsSlow:    o.slowCommits.Load(),
		CommitInflight: o.commitInflight.Load(),
		CommitLatency:  o.commitNs.Snapshot(),
		CloneFanout:    o.cloneFanout.Snapshot(),
		SnapshotAge:    o.snapAgeNs.Snapshot(),
		CommitStages:   make(map[string]CommitStageSnapshot),
	}
	o.mu.RLock()
	paths := make(map[string]*pathMetrics, len(o.paths))
	for k, v := range o.paths {
		paths[k] = v
	}
	o.mu.RUnlock()
	for name, pm := range paths {
		ps := PathSnapshot{Count: pm.count.Load(), Latency: pm.ns.Snapshot()}
		var counts [numCounts]uint64
		for i, c := range pm.counts {
			counts[i] = c.Load()
		}
		ps.add(counts)
		s.Paths[name] = ps
		s.Totals.Count += ps.Count
		s.Totals.Add(ps.QueryStats)
		s.PathNames = append(s.PathNames, name)
	}
	sort.Strings(s.PathNames)
	for st := StageRoute; st < StageStaging; st++ {
		m := &o.stages[st]
		if lat := m.ns.Snapshot(); lat.Count > 0 {
			s.Stages[st.String()] = StageSnapshot{
				Count:   lat.Count,
				Pages:   m.counters[0].Load(),
				Items:   m.items.Load(),
				Latency: lat,
			}
		}
	}
	for st := StageStaging; st < NumStages; st++ {
		m := &o.stages[st]
		if lat := m.ns.Snapshot(); lat.Count > 0 {
			s.CommitStages[st.String()] = CommitStageSnapshot{
				Count:   lat.Count,
				Cloned:  m.counters[0].Load(),
				Freed:   m.counters[1].Load(),
				Items:   m.items.Load(),
				Latency: lat,
			}
		}
	}
	return s
}

package obs

import (
	"context"
	"log/slog"
	"sort"
	"sync"
	"time"
)

// QueryInfo is what the execution engine reports when a query
// finishes. The counts mirror core.QueryStats exactly so the
// reconciliation test can compare observer totals against the exact
// per-query counters.
type QueryInfo struct {
	Path        string // technique route taken: "restricted", "t1", "t2", ...
	PagesRead   uint64
	Candidates  int
	Results     int
	FalseHits   int
	Decided     int // candidates settled on their key, never evaluated
	Duplicates  int
	LeavesSwept int
	Err         error
}

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
	// TraceCapacity bounds the slow-query and slow-commit rings
	// (default 32).
	TraceCapacity int
	// FlightCapacity bounds the commit flight recorder — the ring that
	// keeps every recent commit trace, slow or not (default 64).
	FlightCapacity int
}

// Observer aggregates query-level observations for one index: global
// and per-path counters, latency histograms, per-stage span metrics, a
// slow-query trace ring, and an optional slog slow-query log. All
// methods are safe for concurrent use; a nil *Observer is valid
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

	// Write-path aggregates (commit.go): commit counters, per-stage
	// commit metrics, the COW clone fan-out and snapshot-age
	// histograms, the flight recorder and the slow-commit ring.
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
	cstages        [NumCommitStages]commitStageMetrics
	flight         commitRing
	slowCommitRing commitRing

	mu    sync.RWMutex
	paths map[string]*pathMetrics //dualvet:guarded=mu

	ring struct {
		sync.Mutex
		buf  []*QueryTrace //dualvet:guarded=Mutex
		next int           //dualvet:guarded=Mutex
		seen int           //dualvet:guarded=Mutex
	}
}

type stageMetrics struct {
	ns    *Histogram
	pages *Counter
	items *Counter
}

type pathMetrics struct {
	count       *Counter
	ns          *Histogram
	pages       *Counter
	candidates  *Counter
	results     *Counter
	falseHits   *Counter
	decided     *Counter
	duplicates  *Counter
	leavesSwept *Counter
}

// New builds an Observer. The zero Options is usable: metrics and
// traces accumulate, nothing is logged.
func New(opt Options) *Observer {
	if opt.Name == "" {
		opt.Name = "index"
	}
	if opt.TraceCapacity <= 0 {
		opt.TraceCapacity = 32
	}
	if opt.FlightCapacity <= 0 {
		opt.FlightCapacity = 64
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
		o.stages[s] = stageMetrics{
			ns:    o.reg.Histogram("stage." + s.String() + ".ns"),
			pages: o.reg.Counter("stage." + s.String() + ".pages"),
			items: o.reg.Counter("stage." + s.String() + ".items"),
		}
	}
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
	for s := CommitStage(0); s < NumCommitStages; s++ {
		o.cstages[s] = commitStageMetrics{
			ns:     o.reg.Histogram("cstage." + s.String() + ".ns"),
			cloned: o.reg.Counter("cstage." + s.String() + ".cloned"),
			freed:  o.reg.Counter("cstage." + s.String() + ".freed"),
			items:  o.reg.Counter("cstage." + s.String() + ".items"),
		}
	}
	o.flight.buf = make([]*CommitTrace, opt.FlightCapacity)
	o.slowCommitRing.buf = make([]*CommitTrace, opt.TraceCapacity)
	o.ring.buf = make([]*QueryTrace, opt.TraceCapacity)
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
func (o *Observer) StartQuery(query string) *QueryTrace {
	if o == nil {
		return nil
	}
	o.inflight.Add(1)
	return newTrace(query)
}

// FinishQuery closes a trace opened by StartQuery, folding the
// query-level counts and every recorded stage span into the metric
// registry, and retaining the trace in the slow ring when the total
// latency crosses the threshold.
func (o *Observer) FinishQuery(tr *QueryTrace, info QueryInfo) {
	if o == nil || tr == nil {
		return
	}
	o.inflight.Add(-1)
	total := time.Since(tr.begun)
	tr.finish(total, info)

	o.queries.Inc()
	if info.Err != nil {
		o.errors.Inc()
	}
	pm := o.path(info.Path)
	pm.count.Inc()
	pm.ns.RecordDuration(total)
	pm.pages.Add(info.PagesRead)
	pm.candidates.Add(uint64(info.Candidates))
	pm.results.Add(uint64(info.Results))
	pm.falseHits.Add(uint64(info.FalseHits))
	pm.decided.Add(uint64(info.Decided))
	pm.duplicates.Add(uint64(info.Duplicates))
	pm.leavesSwept.Add(uint64(info.LeavesSwept))

	for _, sp := range tr.spansCopy() {
		st := &o.stages[sp.Stage]
		st.ns.RecordDuration(sp.Dur)
		st.pages.Add(sp.Pages)
		if sp.Items > 0 {
			st.items.Add(uint64(sp.Items))
		}
	}

	if o.slowThreshold > 0 && total >= o.slowThreshold {
		o.slow.Inc()
		o.ringAdd(tr)
		if o.logger != nil {
			o.logSlow(tr, total, info)
		}
	}
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
	pm = &pathMetrics{
		count:       o.reg.Counter("path." + name + ".count"),
		ns:          o.reg.Histogram("path." + name + ".ns"),
		pages:       o.reg.Counter("path." + name + ".pages"),
		candidates:  o.reg.Counter("path." + name + ".candidates"),
		results:     o.reg.Counter("path." + name + ".results"),
		falseHits:   o.reg.Counter("path." + name + ".false_hits"),
		decided:     o.reg.Counter("path." + name + ".decided"),
		duplicates:  o.reg.Counter("path." + name + ".duplicates"),
		leavesSwept: o.reg.Counter("path." + name + ".leaves_swept"),
	}
	o.paths[name] = pm
	return pm
}

func (o *Observer) ringAdd(tr *QueryTrace) {
	o.ring.Lock()
	o.ring.buf[o.ring.next] = tr
	o.ring.next = (o.ring.next + 1) % len(o.ring.buf)
	o.ring.seen++
	o.ring.Unlock()
}

// logSlow emits one structured record per slow query, with the stage
// breakdown as a nested group so log processors can aggregate per
// stage without parsing the trace dump.
func (o *Observer) logSlow(tr *QueryTrace, total time.Duration, info QueryInfo) {
	attrs := []slog.Attr{
		slog.String("index", o.name),
		slog.String("query", tr.query),
		slog.String("path", info.Path),
		slog.Duration("total", total),
		slog.Uint64("pages_read", info.PagesRead),
		slog.Int("candidates", info.Candidates),
		slog.Int("results", info.Results),
		slog.Int("false_hits", info.FalseHits),
		slog.Int("decided", info.Decided),
		slog.Int("duplicates", info.Duplicates),
		slog.Int("leaves_swept", info.LeavesSwept),
	}
	var stageAttrs []any
	for _, sp := range tr.spansCopy() {
		stageAttrs = append(stageAttrs, slog.Group(sp.Stage.String(),
			slog.Duration("dur", sp.Dur),
			slog.Uint64("pages", sp.Pages),
			slog.Int("items", sp.Items),
		))
	}
	if len(stageAttrs) > 0 {
		attrs = append(attrs, slog.Group("stages", stageAttrs...))
	}
	if info.Err != nil {
		attrs = append(attrs, slog.String("err", info.Err.Error()))
	}
	o.logger.LogAttrs(context.Background(), slog.LevelWarn, "slow query", attrs...)
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
	o.ring.Lock()
	n := len(o.ring.buf)
	trs := make([]*QueryTrace, 0, n)
	for i := 1; i <= n; i++ {
		if tr := o.ring.buf[(o.ring.next-i+n)%n]; tr != nil {
			trs = append(trs, tr)
		}
	}
	o.ring.Unlock()
	out := make([]TraceSnapshot, 0, len(trs))
	for _, tr := range trs {
		out = append(out, tr.Snapshot())
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
// queries.
type PathSnapshot struct {
	Count       uint64            `json:"count"`
	Pages       uint64            `json:"pages"`
	Candidates  uint64            `json:"candidates"`
	Results     uint64            `json:"results"`
	FalseHits   uint64            `json:"false_hits"`
	Decided     uint64            `json:"decided"`
	Duplicates  uint64            `json:"duplicates"`
	LeavesSwept uint64            `json:"leaves_swept"`
	Latency     HistogramSnapshot `json:"latency"`
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

	// Write-path aggregates. AbortsFault/AbortsExplicit split
	// CommitAborts by cause; CommitStages is keyed by stage name
	// (stage/shadow/publish/reclaim).
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
		ps := PathSnapshot{
			Count:       pm.count.Load(),
			Pages:       pm.pages.Load(),
			Candidates:  pm.candidates.Load(),
			Results:     pm.results.Load(),
			FalseHits:   pm.falseHits.Load(),
			Decided:     pm.decided.Load(),
			Duplicates:  pm.duplicates.Load(),
			LeavesSwept: pm.leavesSwept.Load(),
			Latency:     pm.ns.Snapshot(),
		}
		s.Paths[name] = ps
		s.Totals.Count += ps.Count
		s.Totals.Pages += ps.Pages
		s.Totals.Candidates += ps.Candidates
		s.Totals.Results += ps.Results
		s.Totals.FalseHits += ps.FalseHits
		s.Totals.Decided += ps.Decided
		s.Totals.Duplicates += ps.Duplicates
		s.Totals.LeavesSwept += ps.LeavesSwept
		s.PathNames = append(s.PathNames, name)
	}
	sort.Strings(s.PathNames)
	for st := Stage(0); st < NumStages; st++ {
		m := &o.stages[st]
		lat := m.ns.Snapshot()
		if lat.Count == 0 && m.pages.Load() == 0 {
			continue
		}
		s.Stages[st.String()] = StageSnapshot{
			Count:   lat.Count,
			Pages:   m.pages.Load(),
			Items:   m.items.Load(),
			Latency: lat,
		}
	}
	for st := CommitStage(0); st < NumCommitStages; st++ {
		m := &o.cstages[st]
		lat := m.ns.Snapshot()
		if lat.Count == 0 {
			continue
		}
		s.CommitStages[st.String()] = CommitStageSnapshot{
			Count:   lat.Count,
			Cloned:  m.cloned.Load(),
			Freed:   m.freed.Load(),
			Items:   m.items.Load(),
			Latency: lat,
		}
	}
	return s
}

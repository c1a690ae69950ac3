package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Stage labels one phase of a traced query or commit batch. The query
// stages mirror the paper's cost decomposition: route picks the slope a_i
// (and plans T1's two approximating queries), sweep is the first
// B^up/B^down leaf walk, sweep2 is T2's handicap-bounded second walk,
// dedup is T1's duplicate elimination across the two app-queries, and
// refine is the exact-predicate pass that removes false hits. The commit
// stages mirror the write path: stage is the mutation window from
// Index.Begin to the Commit call, where every copy-on-write page clone
// happens; shadow closes the trees' COW batches and collects the
// superseded originals; publish derives the frozen relation view and
// swaps the new root set in; reclaim hands the superseded pages to the
// pool's deferred-free queue and frees whatever the snapshot watermark
// already allows. Inside stage, each insert or delete opens child spans
// one after another: keys computes the tuple's key in every tree, trees
// inserts or deletes its entry in every tree copy-on-write, and merge (an
// insert's) folds it into the handicap slots. A child's clones and frees
// count in the child alone; stage keeps those no child counted.
type Stage uint8

// The stage taxonomy: the query stages, then from StageStaging on the
// commit stages. NumStages bounds per-stage metric arrays.
const (
	StageRoute Stage = iota
	StageSweep
	StageSweepSecond
	StageDedup
	StageRefine
	StageStaging
	StageShadow
	StagePublish
	StageReclaim
	StageKeys
	StageTrees
	StageMerge
	NumStages
)

var stageNames = [NumStages]string{"route", "sweep", "sweep2", "dedup", "refine", "stage", "shadow", "publish", "reclaim", "keys", "trees", "merge"}

// String returns the short stage name used in metrics and trace dumps.
func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// metrics returns the registry prefix of the stage's metrics and the names
// of the counters its spans carry ("" for an unused one): a query stage
// counts the query's physical page reads, a commit stage the pool's page
// clones and reclaimed pages.
func (s Stage) metrics() (prefix string, counters [2]string) {
	if s < StageStaging {
		return "stage.", [2]string{"pages"}
	}
	return "cstage.", [2]string{"cloned", "freed"}
}

// Span is one recorded stage interval within a trace. Start is the offset
// from the trace's begin time; Delta holds the changes of the counters the
// caller passed to Begin and End (see Stage.metrics) — exact attribution,
// because a query's stages run one after another on its own read counter
// and commit clones happen only under the index's single-writer lock;
// Items is the stage-specific payload size — entries swept, candidates
// refined, duplicates dropped, mutations staged, pages freed.
type Span struct {
	Stage Stage
	Start time.Duration
	Dur   time.Duration
	Delta [2]uint64
	Items int
}

// Trace accumulates the stage spans of one query execution or one commit
// batch. The engine appends spans through SpanTimer; T1's parallel sweeps
// append concurrently, hence the mutex. A nil *Trace is valid everywhere
// and records nothing, which is how the zero-overhead bare paths work.
type Trace struct {
	query string // the query's text; empty on a commit trace
	begun time.Time

	// opened counts the spans Begin opened; those not among spans when the
	// trace finishes were never ended (an error path that skipped End).
	opened atomic.Int32

	mu    sync.Mutex
	spans []Span // guarded by mu

	// The outcome, stamped by FinishQuery or FinishCommit before the trace
	// enters a ring, and not written after.
	total  time.Duration
	stats  QueryStats
	err    error
	commit CommitInfo
}

func newTrace(query string) *Trace {
	return &Trace{query: query, begun: time.Now(), spans: make([]Span, 0, 8)}
}

// Begin opens a stage span; c0 and c1 are the caller's current counts of
// the stage's counters (the span records the deltas at End). Safe on a nil
// trace: the returned zero timer's End is a no-op.
func (t *Trace) Begin(stage Stage, c0, c1 uint64) SpanTimer {
	if t == nil {
		return SpanTimer{}
	}
	t.opened.Add(1)
	return SpanTimer{tr: t, stage: stage, start: time.Now(), base: [2]uint64{c0, c1}}
}

// SpanTimer measures one stage span. It is a plain value — obtaining one
// allocates nothing — and the zero value's End is a no-op, so call sites
// need no nil checks beyond the one in Trace.Begin.
type SpanTimer struct {
	tr    *Trace
	stage Stage
	start time.Time
	base  [2]uint64 // the counts passed to Begin
}

// End closes the span: c0 and c1 are the caller's counts now (Delta =
// now - at Begin), items the stage payload size. It returns the Delta it
// recorded (zero on the zero timer).
func (s SpanTimer) End(c0, c1 uint64, items int) [2]uint64 {
	if s.tr == nil {
		return [2]uint64{}
	}
	sp := Span{
		Stage: s.stage,
		Start: s.start.Sub(s.tr.begun),
		Dur:   time.Since(s.start),
		Delta: [2]uint64{c0 - s.base[0], c1 - s.base[1]},
		Items: items,
	}
	s.tr.mu.Lock()
	s.tr.spans = append(s.tr.spans, sp)
	s.tr.mu.Unlock()
	return sp.Delta
}

// finish stamps the total latency and returns the recorded spans and the
// number of spans begun and not ended. An operation finishes after its last
// stage ends, so nothing appends to the returned slice.
func (t *Trace) finish() ([]Span, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.total = time.Since(t.begun)
	return t.spans, int(t.opened.Load()) - len(t.spans)
}

// ringCapacity is how many finished traces each ring keeps: the slow-query
// ring, the commit flight recorder and the slow-commit ring.
const ringCapacity = 64

// ring keeps the newest ringCapacity finished traces, overwriting the
// oldest.
type ring struct {
	mu   sync.Mutex
	buf  [ringCapacity]*Trace // guarded by mu
	next int                  // guarded by mu
}

func (r *ring) add(tr *Trace) {
	r.mu.Lock()
	r.buf[r.next] = tr
	r.next = (r.next + 1) % ringCapacity
	r.mu.Unlock()
}

// traces returns the retained traces, newest first.
func (r *ring) traces() []*Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	trs := make([]*Trace, 0, ringCapacity)
	for i := 1; i <= ringCapacity; i++ {
		if tr := r.buf[(r.next-i+ringCapacity)%ringCapacity]; tr != nil {
			trs = append(trs, tr)
		}
	}
	return trs
}

// SpanSnapshot is the JSON form of one span in a query trace dump.
type SpanSnapshot struct {
	Stage   string `json:"stage"`
	StartUs int64  `json:"start_us"`
	DurUs   int64  `json:"dur_us"`
	Pages   uint64 `json:"pages"`
	Items   int    `json:"items"`
}

// TraceSnapshot is the JSON form of a finished query trace, served at
// /debug/traces.
type TraceSnapshot struct {
	Query string `json:"query"`
	QueryStats
	Start   time.Time      `json:"start"`
	TotalUs int64          `json:"total_us"`
	Err     string         `json:"err,omitempty"`
	Spans   []SpanSnapshot `json:"spans"`
}

// querySnapshot renders a finished query trace for serialization.
func (t *Trace) querySnapshot() TraceSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	ts := TraceSnapshot{
		Query:      t.query,
		QueryStats: t.stats,
		Start:      t.begun,
		TotalUs:    t.total.Microseconds(),
		Err:        errString(t.err),
		Spans:      make([]SpanSnapshot, 0, len(t.spans)),
	}
	for _, sp := range t.spans {
		ts.Spans = append(ts.Spans, SpanSnapshot{
			Stage:   sp.Stage.String(),
			StartUs: sp.Start.Microseconds(),
			DurUs:   sp.Dur.Microseconds(),
			Pages:   sp.Delta[0],
			Items:   sp.Items,
		})
	}
	return ts
}

// CommitSpanSnapshot is the JSON form of one commit-stage span.
type CommitSpanSnapshot struct {
	Stage   string `json:"stage"`
	StartUs int64  `json:"start_us"`
	DurUs   int64  `json:"dur_us"`
	Cloned  uint64 `json:"cloned"`
	Freed   uint64 `json:"freed"`
	Items   int    `json:"items"`
}

// CommitTraceSnapshot is the JSON form of a finished commit trace, served
// at /debug/flight.
type CommitTraceSnapshot struct {
	Op         string               `json:"op"`
	Version    uint64               `json:"version,omitempty"`
	Start      time.Time            `json:"start"`
	TotalUs    int64                `json:"total_us"`
	Inserts    int                  `json:"inserts"`
	Deletes    int                  `json:"deletes"`
	Superseded int                  `json:"superseded"`
	Cloned     uint64               `json:"cloned"`
	Freed      uint64               `json:"freed"`
	Aborted    bool                 `json:"aborted,omitempty"`
	Cause      string               `json:"cause,omitempty"`
	Err        string               `json:"err,omitempty"`
	Spans      []CommitSpanSnapshot `json:"spans"`
}

// commitSnapshot renders a finished commit trace for serialization.
// Cloned and Freed are the span sums — the commit's whole-batch
// attribution.
func (t *Trace) commitSnapshot() CommitTraceSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	info := t.commit
	ts := CommitTraceSnapshot{
		Op:         info.Op,
		Version:    info.Version,
		Start:      t.begun,
		TotalUs:    t.total.Microseconds(),
		Inserts:    info.Inserts,
		Deletes:    info.Deletes,
		Superseded: info.Superseded,
		Aborted:    info.Aborted,
		Cause:      string(info.Cause),
		Err:        errString(info.Err),
		Spans:      make([]CommitSpanSnapshot, 0, len(t.spans)),
	}
	for _, sp := range t.spans {
		ts.Cloned += sp.Delta[0]
		ts.Freed += sp.Delta[1]
		ts.Spans = append(ts.Spans, CommitSpanSnapshot{
			Stage:   sp.Stage.String(),
			StartUs: sp.Start.Microseconds(),
			DurUs:   sp.Dur.Microseconds(),
			Cloned:  sp.Delta[0],
			Freed:   sp.Delta[1],
			Items:   sp.Items,
		})
	}
	return ts
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

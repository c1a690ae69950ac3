package obs

import (
	"sync"
	"time"
)

// Stage labels one phase of dual-index query execution. The taxonomy
// mirrors the paper's cost decomposition: route picks the slope a_i
// (and plans T1's two approximating queries), sweep is the first
// B^up/B^down leaf walk, sweep2 is T2's handicap-bounded second walk,
// dedup is T1's duplicate elimination across the two app-queries, and
// refine is the exact-predicate pass that removes false hits.
type Stage uint8

// The stage-span taxonomy. NumStages bounds per-stage metric arrays.
const (
	StageRoute Stage = iota
	StageSweep
	StageSweepSecond
	StageDedup
	StageRefine
	NumStages
)

var stageNames = [NumStages]string{"route", "sweep", "sweep2", "dedup", "refine"}

// String returns the short stage name used in metrics and trace dumps.
func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// Span is one recorded stage interval within a query trace. Start is
// the offset from the trace's begin time; Pages is the physical page
// reads attributed to the span (a ReadCounter delta); Items is the
// stage-specific payload size — entries swept, candidates refined,
// duplicates dropped.
type Span struct {
	Stage Stage
	Start time.Duration
	Dur   time.Duration
	Pages uint64
	Items int
}

// QueryTrace accumulates the stage spans of one query execution. The
// engine appends spans through SpanTimer; T1's parallel sweeps append
// concurrently, hence the mutex. A nil *QueryTrace is valid everywhere
// and records nothing, which is how the zero-overhead bare path works.
type QueryTrace struct {
	query string
	begun time.Time

	mu    sync.Mutex
	spans []Span //dualvet:guarded=mu

	// Filled by Observer.FinishQuery.
	done        bool
	path        string
	total       time.Duration
	pages       uint64
	candidates  int
	results     int
	falseHits   int
	decided     int
	duplicates  int
	leavesSwept int
	err         string
}

func newTrace(query string) *QueryTrace {
	return &QueryTrace{query: query, begun: time.Now(), spans: make([]Span, 0, 8)}
}

// Begin opens a stage span; pages0 is the caller's current physical
// read count (the span records the delta at End). Safe on a nil trace:
// the returned zero timer's End is a no-op.
func (t *QueryTrace) Begin(stage Stage, pages0 uint64) SpanTimer {
	if t == nil {
		return SpanTimer{}
	}
	return SpanTimer{tr: t, stage: stage, start: time.Now(), pages0: pages0}
}

// SpanTimer measures one stage span. It is a plain value — obtaining
// one allocates nothing — and the zero value's End is a no-op, so call
// sites need no nil checks beyond the one in QueryTrace.Begin.
type SpanTimer struct {
	tr     *QueryTrace
	stage  Stage
	start  time.Time
	pages0 uint64
}

// End closes the span: pages1 is the caller's physical read count now
// (Pages = pages1 - pages0), items the stage payload size.
func (s SpanTimer) End(pages1 uint64, items int) {
	if s.tr == nil {
		return
	}
	sp := Span{
		Stage: s.stage,
		Start: s.start.Sub(s.tr.begun),
		Dur:   time.Since(s.start),
		Pages: pages1 - s.pages0,
		Items: items,
	}
	s.tr.mu.Lock()
	s.tr.spans = append(s.tr.spans, sp)
	s.tr.mu.Unlock()
}

// finish stamps the query-level outcome onto the trace.
func (t *QueryTrace) finish(total time.Duration, info QueryInfo) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.done = true
	t.path = info.Path
	t.total = total
	t.pages = info.PagesRead
	t.candidates = info.Candidates
	t.results = info.Results
	t.falseHits = info.FalseHits
	t.decided = info.Decided
	t.duplicates = info.Duplicates
	t.leavesSwept = info.LeavesSwept
	if info.Err != nil {
		t.err = info.Err.Error()
	}
}

// SpanSnapshot is the JSON form of one span in a trace dump.
type SpanSnapshot struct {
	Stage   string `json:"stage"`
	StartUs int64  `json:"start_us"`
	DurUs   int64  `json:"dur_us"`
	Pages   uint64 `json:"pages"`
	Items   int    `json:"items"`
}

// TraceSnapshot is the JSON form of a finished query trace, served at
// /debug/traces and attached to slow-query log records.
type TraceSnapshot struct {
	Query       string         `json:"query"`
	Path        string         `json:"path"`
	Start       time.Time      `json:"start"`
	TotalUs     int64          `json:"total_us"`
	Pages       uint64         `json:"pages"`
	Candidates  int            `json:"candidates"`
	Results     int            `json:"results"`
	FalseHits   int            `json:"false_hits"`
	Decided     int            `json:"decided"`
	Duplicates  int            `json:"duplicates"`
	LeavesSwept int            `json:"leaves_swept"`
	Err         string         `json:"err,omitempty"`
	Spans       []SpanSnapshot `json:"spans"`
}

// Snapshot renders the trace for serialization.
func (t *QueryTrace) Snapshot() TraceSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	ts := TraceSnapshot{
		Query:       t.query,
		Path:        t.path,
		Start:       t.begun,
		TotalUs:     t.total.Microseconds(),
		Pages:       t.pages,
		Candidates:  t.candidates,
		Results:     t.results,
		FalseHits:   t.falseHits,
		Decided:     t.decided,
		Duplicates:  t.duplicates,
		LeavesSwept: t.leavesSwept,
		Err:         t.err,
		Spans:       make([]SpanSnapshot, 0, len(t.spans)),
	}
	for _, sp := range t.spans {
		ts.Spans = append(ts.Spans, SpanSnapshot{
			Stage:   sp.Stage.String(),
			StartUs: sp.Start.Microseconds(),
			DurUs:   sp.Dur.Microseconds(),
			Pages:   sp.Pages,
			Items:   sp.Items,
		})
	}
	return ts
}

// spansCopy returns the recorded spans; used by FinishQuery to fold
// them into per-stage metrics.
func (t *QueryTrace) spansCopy() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

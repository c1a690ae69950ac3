package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryReusesMetrics(t *testing.T) {
	r := NewRegistry("test")
	c1 := r.Counter("a")
	c1.Add(3)
	if c2 := r.Counter("a"); c2 != c1 {
		t.Fatal("Counter did not return the registered instance")
	}
	g := r.Gauge("g")
	g.Set(-5)
	h := r.Histogram("h")
	h.Record(7)
	r.Func("f", func() any { return "hello" })

	snap := r.Snapshot()
	if snap["a"] != uint64(3) {
		t.Fatalf("counter snapshot = %v", snap["a"])
	}
	if snap["g"] != int64(-5) {
		t.Fatalf("gauge snapshot = %v", snap["g"])
	}
	if hs, ok := snap["h"].(HistogramSnapshot); !ok || hs.Count != 1 {
		t.Fatalf("histogram snapshot = %v", snap["h"])
	}
	if snap["f"] != "hello" {
		t.Fatalf("func snapshot = %v", snap["f"])
	}
	names := r.Names()
	if len(names) != 4 || names[0] != "a" || names[1] != "f" {
		t.Fatalf("names = %v", names)
	}
}

// TestRegistryConcurrent hammers create/use/snapshot from many
// goroutines; meaningful under -race.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry("race")
	names := []string{"x", "y", "z"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				r.Counter(names[i%len(names)]).Inc()
				r.Histogram("lat").Record(uint64(i))
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	snap := r.Snapshot()
	var total uint64
	for _, n := range names {
		total += snap[n].(uint64)
	}
	if total != 8*2000 {
		t.Fatalf("counter total = %d, want %d", total, 8*2000)
	}
	if hs := snap["lat"].(HistogramSnapshot); hs.Count != 8*2000 {
		t.Fatalf("histogram count = %d, want %d", hs.Count, 8*2000)
	}
}

func TestNilObserverAndTraceAreNoOps(t *testing.T) {
	var o *Observer
	tr := o.StartQuery("q")
	if tr != nil {
		t.Fatal("nil observer returned a trace")
	}
	sp := tr.Begin(StageSweep, 0, 0)
	sp.End(5, 0, 1) // must not panic
	o.FinishQuery(tr, QueryStats{}, nil)
	o.StartBatch().Done()
	if o.ObserverSnapshot() != nil {
		t.Fatal("nil observer snapshot not nil")
	}
	if o.SlowTraces() != nil {
		t.Fatal("nil observer traces not nil")
	}
	if o.Registry() != nil {
		t.Fatal("nil observer registry not nil")
	}
}

func TestObserverAggregates(t *testing.T) {
	o := New(Options{Name: "ix"})
	for i := 0; i < 3; i++ {
		tr := o.StartQuery("exist y >= x")
		sp := tr.Begin(StageSweep, 10, 0)
		sp.End(14, 0, 20)
		sp = tr.Begin(StageRefine, 14, 0)
		sp.End(14, 0, 6)
		o.FinishQuery(tr, QueryStats{
			Path: "t2", PagesRead: 4, Candidates: 20, Results: 17,
			FalseHits: 3, LeavesSwept: 2,
		}, nil)
	}
	tr := o.StartQuery("all y <= 0")
	o.FinishQuery(tr, QueryStats{Path: "restricted", PagesRead: 1, Candidates: 5, Results: 5}, nil)

	s := o.ObserverSnapshot()
	if s.Queries != 4 || s.Inflight != 0 {
		t.Fatalf("queries=%d inflight=%d", s.Queries, s.Inflight)
	}
	t2 := s.Paths["t2"]
	if t2.Count != 3 || t2.PagesRead != 12 || t2.Candidates != 60 || t2.FalseHits != 9 {
		t.Fatalf("t2 path snapshot: %+v", t2)
	}
	if s.Totals.Count != 4 || s.Totals.PagesRead != 13 || s.Totals.Results != 56 {
		t.Fatalf("totals: %+v", s.Totals)
	}
	sweep := s.Stages[StageSweep.String()]
	if sweep.Count != 3 || sweep.Pages != 12 || sweep.Items != 60 {
		t.Fatalf("sweep stage: %+v", sweep)
	}
	refine := s.Stages[StageRefine.String()]
	if refine.Count != 3 || refine.Pages != 0 || refine.Items != 18 {
		t.Fatalf("refine stage: %+v", refine)
	}
	if t2.Latency.Count != 3 {
		t.Fatalf("t2 latency count = %d", t2.Latency.Count)
	}
}

// TestQueryStatsCounterList pins the one list of QueryStats counters: the
// name counterNames gives a counter is its JSON key and its name in the
// registry and the slow-query log, counts and add take the counters in that
// order, and Add sums every counter and keeps the receiver's Path.
func TestQueryStatsCounterList(t *testing.T) {
	st := QueryStats{Path: "t2", PagesRead: 1, Candidates: 2, Results: 3, FalseHits: 4, Decided: 5,
		Sure: 6, Tangent: 7, Duplicates: 8, LeavesSwept: 9, LeavesWhole: 10}
	var want [numCounts]uint64
	for i := range want {
		want[i] = uint64(i + 1)
	}
	if got := st.counts(); got != want {
		t.Fatalf("counts() = %v, want %v", got, want)
	}
	var added QueryStats
	added.add(want)
	if added.Path = st.Path; added != st {
		t.Fatalf("add(%v) = %+v, want %+v", want, added, st)
	}

	sum := QueryStats{Path: "line"}
	sum.Add(st)
	sum.Add(st)
	if double := (QueryStats{Path: "line", PagesRead: 2, Candidates: 4, Results: 6, FalseHits: 8, Decided: 10,
		Sure: 12, Tangent: 14, Duplicates: 16, LeavesSwept: 18, LeavesWhole: 20}); sum != double {
		t.Fatalf("Add twice: %+v, want %+v", sum, double)
	}

	var buf bytes.Buffer
	o := New(Options{SlowThreshold: time.Nanosecond, Logger: slog.New(slog.NewJSONHandler(&buf, nil))})
	o.FinishQuery(o.StartQuery("q"), st, nil)
	var doc, rec map[string]any
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if len(doc) != numCounts+1 {
		t.Errorf("JSON %s: %d keys, want the path and %d counters", data, len(doc), numCounts)
	}
	reg := o.Registry().Snapshot()
	for i, name := range counterNames {
		if doc[name] != float64(i+1) || rec[name] != float64(i+1) || reg["path.t2."+name] != uint64(i+1) {
			t.Errorf("%s: JSON %v, slow log %v, registry %v; want %d", name, doc[name], rec[name], reg["path.t2."+name], i+1)
		}
	}
}

// TestUnclosedSpansCounted: a span begun and never ended shows up in the
// observer's count when its query or commit finishes; ended spans do not.
func TestUnclosedSpansCounted(t *testing.T) {
	o := New(Options{})
	tr := o.StartQuery("exist y >= x")
	tr.Begin(StageSweep, 0, 0).End(1, 0, 3)
	tr.Begin(StageRefine, 1, 0) // an error path that skipped End
	o.FinishQuery(tr, QueryStats{Path: "t2"}, fmt.Errorf("boom"))
	if n := o.ObserverSnapshot().UnclosedSpans; n != 1 {
		t.Fatalf("after a query with one span left open: %d unclosed, want 1", n)
	}
	tr = o.StartCommit()
	tr.Begin(StageStaging, 0, 0).End(0, 0, 1)
	tr.Begin(StagePublish, 0, 0)
	tr.Begin(StageReclaim, 0, 0)
	o.FinishCommit(tr, CommitInfo{Op: "insert", Version: 2})
	if n := o.ObserverSnapshot().UnclosedSpans; n != 3 {
		t.Fatalf("after a commit with two spans left open: %d unclosed, want 3", n)
	}
	tr = o.StartQuery("all y <= 0")
	tr.Begin(StageRoute, 0, 0).End(0, 0, 0)
	o.FinishQuery(tr, QueryStats{Path: "restricted"}, nil)
	if n := o.Registry().Counter("spans.unclosed").Load(); n != 3 {
		t.Fatalf("a query that ended its spans moved the count to %d", n)
	}
}

func TestSlowQueryLogAndRing(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	o := New(Options{
		Name:          "ix",
		SlowThreshold: time.Nanosecond, // everything is slow
		Logger:        logger,
	})
	// One query more than the ring holds, so it wraps.
	const n = ringCapacity + 1
	for i := 0; i < n; i++ {
		tr := o.StartQuery(fmt.Sprintf("q%d", i))
		sp := tr.Begin(StageSweep, 0, 0)
		sp.End(uint64(i), 0, i)
		o.FinishQuery(tr, QueryStats{Path: "t2", PagesRead: uint64(i)}, nil)
	}
	if got := o.ObserverSnapshot().Slow; got != n {
		t.Fatalf("slow count = %d, want %d", got, n)
	}
	trs := o.SlowTraces()
	if len(trs) != ringCapacity { // the ring keeps the newest ringCapacity
		t.Fatalf("ring kept %d traces, want %d", len(trs), ringCapacity)
	}
	if trs[0].Query != fmt.Sprintf("q%d", n-1) || trs[ringCapacity-1].Query != "q1" {
		t.Fatalf("ring order: %q ... %q", trs[0].Query, trs[ringCapacity-1].Query)
	}
	if len(trs[0].Spans) != 1 || trs[0].Spans[0].Stage != "sweep" {
		t.Fatalf("trace spans: %+v", trs[0].Spans)
	}

	// One JSON log line per query, each with the structured fields.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != n {
		t.Fatalf("log lines = %d, want %d:\n%s", len(lines), n, buf.String())
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[n-1]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["msg"] != "slow query" || rec["query"] != fmt.Sprintf("q%d", n-1) || rec["path"] != "t2" {
		t.Fatalf("log record: %v", rec)
	}
	if _, ok := rec["stages"]; !ok {
		t.Fatalf("log record missing stage group: %v", rec)
	}
}

func TestObserverConcurrent(t *testing.T) {
	o := New(Options{SlowThreshold: time.Nanosecond})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			paths := []string{"restricted", "t1", "t2"}
			for i := 0; i < 500; i++ {
				tr := o.StartQuery("q")
				sp := tr.Begin(StageSweep, 0, 0)
				sp.End(1, 0, 1)
				o.FinishQuery(tr, QueryStats{Path: paths[i%3], PagesRead: 1}, nil)
				if i%50 == 0 {
					_ = o.ObserverSnapshot()
					_ = o.SlowTraces()
				}
			}
		}(w)
	}
	wg.Wait()
	s := o.ObserverSnapshot()
	if s.Queries != 8*500 || s.Totals.Count != 8*500 || s.Totals.PagesRead != 8*500 {
		t.Fatalf("concurrent totals: queries=%d totals=%+v", s.Queries, s.Totals)
	}
}

func TestDebugMux(t *testing.T) {
	o := New(Options{SlowThreshold: time.Nanosecond})
	tr := o.StartQuery("exist y >= 2x")
	o.FinishQuery(tr, QueryStats{Path: "t2", PagesRead: 7}, nil)
	mux := DebugMux(func() any { return map[string]int{"pages": 42} }, o)

	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) map[string]any {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		var v map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return v
	}

	if v := get("/debug/stats"); v["pages"] != float64(42) {
		t.Fatalf("/debug/stats: %v", v)
	}
	metrics := get("/debug/metrics")
	if metrics["queries.total"] != float64(1) {
		t.Fatalf("/debug/metrics: %v", metrics["queries.total"])
	}
	resp, err := srv.Client().Get(srv.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var trs []TraceSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&trs); err != nil {
		t.Fatal(err)
	}
	if len(trs) != 1 || trs[0].Query != "exist y >= 2x" || trs[0].PagesRead != 7 {
		t.Fatalf("/debug/traces: %+v", trs)
	}
}

package main

import (
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestServeSmoke drives a full observed session — generate, index, query,
// serve — then scrapes the debug server and checks the JSON is well-formed
// with nonzero pool counters. This is the CI smoke test for the debug
// server.
func TestServeSmoke(t *testing.T) {
	var sb strings.Builder
	s := newTestSession(&sb)
	for _, line := range []string{
		"observe slow 1ns",
		"gen 300 small 7",
		"index 3 t2",
		"exist y >= 0.4x + 1",
		"all y <= 2",
		"insert x >= 0 && y >= 0 && x + y <= 4",
		"insert y >= 8",
		"delete 301",
		"serve 127.0.0.1:0",
	} {
		if err := s.exec(line); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
	}
	s.out.Flush()
	defer s.srv.Close()

	m := regexp.MustCompile(`listening on (http://[^/ ]+)/`).FindStringSubmatch(sb.String())
	if m == nil {
		t.Fatalf("no listen address in output:\n%s", sb.String())
	}
	base := m[1]

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return body
	}

	// /debug/stats: the unified snapshot with live pool counters.
	var stats struct {
		Tuples    int    `json:"tuples"`
		Pages     int    `json:"pages"`
		Technique string `json:"technique"`
		Pool      struct {
			LogicalReads  uint64 `json:"LogicalReads"`
			PhysicalReads uint64 `json:"PhysicalReads"`
		} `json:"pool"`
		Observer *struct {
			Queries uint64 `json:"queries"`
		} `json:"observer"`
	}
	if err := json.Unmarshal(get("/debug/stats"), &stats); err != nil {
		t.Fatalf("/debug/stats is not valid JSON: %v", err)
	}
	if stats.Tuples != 301 || stats.Pages == 0 || stats.Technique != "T2" {
		t.Errorf("unexpected snapshot shape: %+v", stats)
	}
	if stats.Pool.LogicalReads == 0 {
		t.Error("pool logical reads are zero after an index build and two queries")
	}
	if stats.Observer == nil || stats.Observer.Queries != 2 {
		t.Errorf("observer should report 2 queries, got %+v", stats.Observer)
	}

	// /debug/metrics: flat registry snapshot.
	var metrics map[string]any
	if err := json.Unmarshal(get("/debug/metrics"), &metrics); err != nil {
		t.Fatalf("/debug/metrics is not valid JSON: %v", err)
	}
	if v, ok := metrics["queries.total"].(float64); !ok || v != 2 {
		t.Errorf("queries.total = %v, want 2", metrics["queries.total"])
	}
	if v, ok := metrics["pool.logical_reads"].(float64); !ok || v == 0 {
		t.Errorf("pool.logical_reads gauge = %v, want nonzero", metrics["pool.logical_reads"])
	}

	// /debug/traces: both queries crossed the 1ns threshold.
	var traces []json.RawMessage
	if err := json.Unmarshal(get("/debug/traces"), &traces); err != nil {
		t.Fatalf("/debug/traces is not valid JSON: %v", err)
	}
	if len(traces) != 2 {
		t.Errorf("expected 2 retained traces, got %d", len(traces))
	}

	// /debug/prom: Prometheus text exposition with the right content
	// type, TYPE declarations, and well-formed cumulative histograms.
	resp, err := http.Get(base + "/debug/prom")
	if err != nil {
		t.Fatalf("GET /debug/prom: %v", err)
	}
	promBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET /debug/prom: %v", err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/debug/prom content type = %q", ct)
	}
	prom := string(promBody)
	for _, want := range []string{
		"# TYPE dualcdb_cdbtool_queries_total counter",
		"# TYPE dualcdb_cdbtool_commits_total counter",
		"# TYPE dualcdb_cdbtool_commits_latency_ns histogram",
		"dualcdb_cdbtool_mvcc_version",
		"go_goroutines",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/debug/prom missing %q", want)
		}
	}
	checkPromHistogram(t, prom, "dualcdb_cdbtool_commits_latency_ns")

	// /debug/flight: the three commits above, newest first, each with the
	// full stage breakdown.
	var flight struct {
		Commits []struct {
			Op      string `json:"op"`
			Version uint64 `json:"version"`
			Spans   []struct {
				Stage string `json:"stage"`
			} `json:"spans"`
		} `json:"commits"`
		SlowCommits []json.RawMessage `json:"slow_commits"`
	}
	if err := json.Unmarshal(get("/debug/flight"), &flight); err != nil {
		t.Fatalf("/debug/flight is not valid JSON: %v", err)
	}
	if len(flight.Commits) != 3 {
		t.Fatalf("flight recorder has %d commits, want 3", len(flight.Commits))
	}
	if flight.Commits[0].Op != "delete" || flight.Commits[2].Op != "insert" {
		t.Errorf("flight recorder order/ops wrong: %+v", flight.Commits)
	}
	var stages []string
	for _, sp := range flight.Commits[0].Spans {
		stages = append(stages, sp.Stage)
	}
	if got, want := strings.Join(stages, " "), "keys trees stage shadow publish reclaim"; got != want {
		t.Errorf("delete commit trace has spans %q, want %q", got, want)
	}

	// The shell's stats command must surface the same layers.
	sb.Reset()
	if err := s.exec("stats"); err != nil {
		t.Fatal(err)
	}
	s.out.Flush()
	out := sb.String()
	for _, want := range []string{"pool:", "queries: 2 total", "mvcc: version 4", "commits: 3 total"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %q:\n%s", want, out)
		}
	}

	// And the flight command renders the same traces as text.
	sb.Reset()
	if err := s.exec("flight"); err != nil {
		t.Fatal(err)
	}
	s.out.Flush()
	out = sb.String()
	for _, want := range []string{"delete", "publish", "reclaim", "cloned="} {
		if !strings.Contains(out, want) {
			t.Errorf("flight output missing %q:\n%s", want, out)
		}
	}
}

// checkPromHistogram asserts one exposition histogram is well-formed in
// document order: le labels ascending, cumulative counts nondecreasing,
// and the terminal +Inf bucket equal to _count.
func checkPromHistogram(t *testing.T, doc, name string) {
	t.Helper()
	var (
		lastLe    float64
		lastCount float64
		infCount  = -1.0
		buckets   int
	)
	bucketRe := regexp.MustCompile(`^` + name + `_bucket\{le="([^"]+)"\} (\d+)$`)
	countRe := regexp.MustCompile(`^` + name + `_count (\d+)$`)
	count := -1.0
	for _, line := range strings.Split(doc, "\n") {
		if m := countRe.FindStringSubmatch(line); m != nil {
			count = mustFloat(t, m[1])
			continue
		}
		m := bucketRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		c := mustFloat(t, m[2])
		if c < lastCount {
			t.Errorf("%s: cumulative count decreases at le=%q (%g -> %g)", name, m[1], lastCount, c)
		}
		lastCount = c
		if m[1] == "+Inf" {
			infCount = c
			continue
		}
		le := mustFloat(t, m[1])
		if buckets > 0 && le <= lastLe {
			t.Errorf("%s: le not ascending (%g after %g)", name, le, lastLe)
		}
		lastLe = le
		buckets++
	}
	if buckets == 0 {
		t.Fatalf("%s: no buckets in exposition", name)
	}
	if infCount < 0 || count < 0 || infCount != count {
		t.Errorf("%s: +Inf bucket %g != _count %g", name, infCount, count)
	}
}

func mustFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad number %q: %v", s, err)
	}
	return v
}

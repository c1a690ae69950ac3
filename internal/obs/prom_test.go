package obs

import (
	"bytes"
	"fmt"
	"log/slog"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// parseProm splits an exposition document into TYPE declarations and
// sample lines, failing on structurally invalid lines.
func parseProm(t *testing.T, doc string) (types map[string]string, samples map[string]float64) {
	t.Helper()
	types = map[string]string{}
	samples = map[string]float64{}
	for _, line := range strings.Split(doc, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			types[fields[2]] = fields[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		samples[line[:i]] = v
	}
	return types, samples
}

// checkHistogram asserts the textbook shape of one exposition histogram:
// le labels strictly ascending, cumulative counts nondecreasing, and the
// terminal +Inf bucket equal to _count.
func checkHistogram(t *testing.T, samples map[string]float64, name string) {
	t.Helper()
	type bucket struct {
		le    float64
		count float64
	}
	var buckets []bucket
	prefix := name + `_bucket{le="`
	for k, v := range samples {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		leStr := strings.TrimSuffix(strings.TrimPrefix(k, prefix), `"}`)
		le := 0.0
		if leStr == "+Inf" {
			le = float64(1<<63 - 1)
		} else {
			var err error
			if le, err = strconv.ParseFloat(leStr, 64); err != nil {
				t.Fatalf("%s: bad le %q: %v", name, leStr, err)
			}
		}
		buckets = append(buckets, bucket{le, v})
	}
	if len(buckets) == 0 {
		t.Fatalf("%s: no buckets in exposition", name)
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	for i := 1; i < len(buckets); i++ {
		if buckets[i].count < buckets[i-1].count {
			t.Errorf("%s: cumulative count decreases at le=%g (%g -> %g)",
				name, buckets[i].le, buckets[i-1].count, buckets[i].count)
		}
	}
	count, ok := samples[name+"_count"]
	if !ok {
		t.Fatalf("%s: missing _count", name)
	}
	if inf := buckets[len(buckets)-1].count; inf != count {
		t.Errorf("%s: +Inf bucket %g != _count %g", name, inf, count)
	}
	if _, ok := samples[name+"_sum"]; !ok {
		t.Errorf("%s: missing _sum", name)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry("ix")
	r.Counter("commits.total").Add(7)
	r.Gauge("commits.inflight").Set(-2)
	h := r.Histogram("latency.ns")
	for i := uint64(1); i <= 100; i++ {
		h.Record(i * 37)
	}
	type inner struct{ Reclaimed uint64 }
	type census struct {
		Active  int
		Oldest  uint64
		Nested  inner
		Skipped string // non-numeric leaves are dropped
		private int    // unexported fields are dropped
	}
	r.Func("mvcc", func() any { return census{Active: 3, Oldest: 11, Nested: inner{Reclaimed: 5}, private: 9} })

	var buf bytes.Buffer
	WritePrometheus(&buf, r)
	doc := buf.String()
	types, samples := parseProm(t, doc)

	if v := samples["dualcdb_ix_commits_total"]; v != 7 {
		t.Errorf("counter sample = %v, want 7", v)
	}
	if types["dualcdb_ix_commits_total"] != "counter" {
		t.Errorf("counter TYPE = %q", types["dualcdb_ix_commits_total"])
	}
	if v := samples["dualcdb_ix_commits_inflight"]; v != -2 {
		t.Errorf("gauge sample = %v, want -2", v)
	}
	if types["dualcdb_ix_commits_inflight"] != "gauge" {
		t.Errorf("gauge TYPE = %q", types["dualcdb_ix_commits_inflight"])
	}
	if types["dualcdb_ix_latency_ns"] != "histogram" {
		t.Errorf("histogram TYPE = %q", types["dualcdb_ix_latency_ns"])
	}
	checkHistogram(t, samples, "dualcdb_ix_latency_ns")
	if v := samples["dualcdb_ix_latency_ns_count"]; v != 100 {
		t.Errorf("histogram _count = %v, want 100", v)
	}

	// Struct-valued func gauges flatten to snake_case leaves.
	if v := samples["dualcdb_ix_mvcc_active"]; v != 3 {
		t.Errorf("flattened mvcc_active = %v, want 3", v)
	}
	if v := samples["dualcdb_ix_mvcc_nested_reclaimed"]; v != 5 {
		t.Errorf("flattened nested leaf = %v, want 5", v)
	}
	for name := range samples {
		if strings.Contains(name, "skipped") || strings.Contains(name, "private") {
			t.Errorf("non-numeric or unexported field leaked into exposition: %s", name)
		}
	}

	// Every sample's metric name must be covered by a TYPE declaration.
	for name := range samples {
		base := name
		if i := strings.IndexByte(base, '{'); i >= 0 {
			base = base[:i]
		}
		base = strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(base, "_bucket"), "_sum"), "_count")
		if _, ok := types[base]; !ok {
			t.Errorf("sample %s has no TYPE declaration (base %s)", name, base)
		}
	}
}

func TestPromNameSanitization(t *testing.T) {
	r := NewRegistry("my-ix.2")
	r.Counter("weird metric/name").Add(1)
	var buf bytes.Buffer
	WritePrometheus(&buf, r)
	_, samples := parseProm(t, buf.String())
	if v := samples["dualcdb_my_ix_2_weird_metric_name"]; v != 1 {
		t.Errorf("sanitized sample missing; got %v", samples)
	}
}

func TestWriteRuntimeMetrics(t *testing.T) {
	var buf bytes.Buffer
	WriteRuntimeMetrics(&buf)
	types, samples := parseProm(t, buf.String())
	if v, ok := samples["go_goroutines"]; !ok || v < 1 {
		t.Errorf("go_goroutines = %v, %v", v, ok)
	}
	if types["go_goroutines"] != "gauge" {
		t.Errorf("go_goroutines TYPE = %q", types["go_goroutines"])
	}
	if types["go_gc_pauses_seconds"] == "histogram" {
		checkHistogram(t, samples, "go_gc_pauses_seconds")
	}
}

// finishOne runs one observed commit batch through the trace lifecycle.
func finishOne(o *Observer, op string, version uint64, aborted bool, cause AbortCause, err error) {
	tr := o.StartCommit()
	sp := tr.Begin(StageStaging, 10, 2)
	sp.End(14, 5, 3) // cloned 4, freed 3
	o.FinishCommit(tr, CommitInfo{
		Op: op, Version: version, Inserts: 3,
		Aborted: aborted, Cause: cause, Err: err,
	})
}

func TestCommitFlightRing(t *testing.T) {
	// Three commits more than the ring holds, so it wraps.
	const n = ringCapacity + 3
	o := New(Options{Name: "t"})
	for i := 0; i < n; i++ {
		finishOne(o, fmt.Sprintf("op%d", i), uint64(i+1), false, "", nil)
	}
	recs := o.FlightRecords()
	if len(recs) != ringCapacity {
		t.Fatalf("flight ring retained %d, want capacity %d", len(recs), ringCapacity)
	}
	// Newest first: op(n-1) down to op3.
	for i, r := range recs {
		if want := fmt.Sprintf("op%d", n-1-i); r.Op != want {
			t.Errorf("recs[%d].Op = %q, want %q", i, r.Op, want)
		}
	}
	if recs[0].Cloned != 4 || recs[0].Freed != 3 {
		t.Errorf("trace span attribution cloned=%d freed=%d, want 4/3", recs[0].Cloned, recs[0].Freed)
	}
	snap := o.ObserverSnapshot()
	if snap.Commits != n || snap.CommitAborts != 0 {
		t.Errorf("commits=%d aborts=%d, want %d/0", snap.Commits, snap.CommitAborts, n)
	}
}

func TestAbortCauseCountersAndLog(t *testing.T) {
	var logBuf bytes.Buffer
	o := New(Options{
		Name:   "t",
		Logger: slog.New(slog.NewJSONHandler(&logBuf, nil)),
		// No SlowThreshold: only aborted commits reach the slow ring/log.
	})
	finishOne(o, "insert", 5, false, "", nil)
	finishOne(o, "batch", 0, true, AbortExplicit, nil)
	finishOne(o, "delete", 0, true, AbortFault, fmt.Errorf("tuple not found"))

	snap := o.ObserverSnapshot()
	if snap.Commits != 1 || snap.CommitAborts != 2 || snap.AbortsFault != 1 || snap.AbortsExplicit != 1 {
		t.Errorf("commits=%d aborts=%d fault=%d explicit=%d, want 1/2/1/1",
			snap.Commits, snap.CommitAborts, snap.AbortsFault, snap.AbortsExplicit)
	}
	slow := o.SlowCommits()
	if len(slow) != 2 {
		t.Fatalf("slow-commit ring retained %d, want the 2 aborted", len(slow))
	}
	for _, r := range slow {
		if !r.Aborted {
			t.Errorf("non-aborted commit %q in slow ring without threshold", r.Op)
		}
	}
	log := logBuf.String()
	if !strings.Contains(log, "aborted commit") {
		t.Errorf("log missing aborted-commit records: %s", log)
	}
	if !strings.Contains(log, `"cause":"fault"`) || !strings.Contains(log, `"cause":"explicit"`) {
		t.Errorf("log missing abort causes: %s", log)
	}
	if !strings.Contains(log, "tuple not found") {
		t.Errorf("log missing abort error: %s", log)
	}
	if strings.Contains(log, `"op":"insert"`) {
		t.Errorf("published fast commit leaked into slow log: %s", log)
	}
}

func TestSlowCommitThreshold(t *testing.T) {
	o := New(Options{Name: "t", SlowThreshold: time.Nanosecond})
	finishOne(o, "insert", 2, false, "", nil)
	snap := o.ObserverSnapshot()
	if snap.CommitsSlow != 1 {
		t.Errorf("slow commits = %d, want 1", snap.CommitsSlow)
	}
	if len(o.SlowCommits()) != 1 {
		t.Errorf("slow ring retained %d, want 1", len(o.SlowCommits()))
	}
	if snap.CommitInflight != 0 {
		t.Errorf("inflight gauge = %d, want 0 after finish", snap.CommitInflight)
	}
}

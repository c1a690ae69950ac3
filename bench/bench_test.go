package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"dualcdb/internal/pagestore"
)

func testConfig(t *testing.T, trace bool) config {
	return config{seed: 7, seconds: 0.3, trace: trace, short: true, outDir: t.TempDir(), log: &bytes.Buffer{}}
}

// The metric tables are the source of BENCHMARK.json; the file on disk must
// be exactly what they render, inside the limits the driver enforces.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json differs from the metric tables; regenerate it with: bash bench/run.sh -manifest > BENCHMARK.json")
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the driver's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(specs) < 2 || len(specs) > 8 {
		t.Errorf("%d workloads", len(specs))
	}
	for _, sp := range specs {
		name(sp.name)
		if len(sp.why) > 200 || strings.Contains(sp.why, "\n") {
			t.Errorf("%s: why is %d characters", sp.name, len(sp.why))
		}
	}
	setup := false
	for _, d := range endToEnd {
		name(d.Name)
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !setup {
		t.Error("no setup_s in seconds, lower is better")
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range perLayer {
		name(d.Name)
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
}

// Every workload prints exactly the declared metric set of its run kind as
// the last line of its output, no operation fails, and no end-to-end metric
// is 0.
func TestEveryWorkloadPrintsTheDeclaredMetrics(t *testing.T) {
	for _, sp := range specs {
		for _, trace := range []bool{false, true} {
			cfg := testConfig(t, trace)
			out := &bytes.Buffer{}
			cfg.log = out
			ok, err := runAndPrint(sp, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", sp.name, trace, err, out)
			}
			if !ok {
				t.Errorf("%s trace=%v: operations failed\n%s", sp.name, trace, out)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var keys map[string]json.RawMessage
			var line resultLine
			last := []byte(lines[len(lines)-1])
			if err := json.Unmarshal(last, &keys); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", sp.name, err)
			}
			if err := json.Unmarshal(last, &line); err != nil {
				t.Fatal(err)
			}
			if len(keys) != 4 || !line.Correct || line.Attempted < 1 || line.Failed != 0 {
				t.Errorf("%s trace=%v: result line %s", sp.name, trace, last)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics printed, %d declared", sp.name, trace, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := line.Metrics[d.Name]
				if !ok || v.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v", sp.name, trace, d.Name, v)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v", sp.name, d.Name, v.Value)
				}
			}
		}
	}
}

// The same seed gives identical inputs and identical counts; another seed
// gives other inputs.
func TestSeedDeterminism(t *testing.T) {
	sp, _ := specByName("cold_file")
	sp = sp.short()
	fingerprint := func(seed int64) uint64 {
		in, err := generate(sp, seed, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return in.fingerprint()
	}
	if a, b := fingerprint(7), fingerprint(7); a != b {
		t.Errorf("seed 7 gave inputs %x and %x", a, b)
	}
	if a, b := fingerprint(7), fingerprint(8); a == b {
		t.Errorf("seeds 7 and 8 gave the same inputs %x", a)
	}

	sp, _ = specByName("cold_file")
	exact := map[bool][]string{
		false: {"pages_per_query", "index_pages"},
		true:  {"core.candidates_per_query", "core.results_per_query", "pagestore.pool.physical_reads"},
	}
	for trace, names := range exact {
		a, err := runWorkload(sp, testConfig(t, trace))
		if err != nil {
			t.Fatal(err)
		}
		b, err := runWorkload(sp, testConfig(t, trace))
		if err != nil {
			t.Fatal(err)
		}
		if a.fingerprint != b.fingerprint {
			t.Errorf("two runs had inputs %x and %x", a.fingerprint, b.fingerprint)
		}
		for _, name := range names {
			if a.metrics[name] != b.metrics[name] || a.metrics[name] == 0 {
				t.Errorf("%s: %v then %v", name, a.metrics[name], b.metrics[name])
			}
		}
	}
}

// On the cold workload every page the pool misses is one page the device
// read, and the probe's page count is what the timed cold queries read; the
// warm workloads read nothing in the timed section.
func TestPageAccounting(t *testing.T) {
	for _, sp := range specs {
		res, err := runWorkload(sp, testConfig(t, true))
		if err != nil {
			t.Fatal(err)
		}
		m := res.metrics
		if m["pagestore.store.read_pages"] != m["pagestore.pool.physical_reads"] {
			t.Errorf("%s: the device read %v pages per query, the pool missed %v",
				sp.name, m["pagestore.store.read_pages"], m["pagestore.pool.physical_reads"])
		}
		switch {
		case sp.file && m["pagestore.pool.physical_reads"] != m["pages_per_query"]:
			t.Errorf("%s: %v physical reads per timed query, %v pages per probe query",
				sp.name, m["pagestore.pool.physical_reads"], m["pages_per_query"])
		case !sp.file && m["pagestore.pool.physical_reads"] != 0:
			t.Errorf("%s: %v physical reads per timed query on a warm pool", sp.name, m["pagestore.pool.physical_reads"])
		}
	}
}

func TestTimedStoreIsTransparent(t *testing.T) {
	s := &timedStore{Store: pagestore.NewMemStore(pageSize)}
	s.on.Store(true)
	id, err := s.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	page := bytes.Repeat([]byte{0xab}, pageSize)
	if err := s.WritePage(id, page); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, pageSize)
	if err := s.ReadPage(id, buf); err != nil || !bytes.Equal(buf, page) {
		t.Fatalf("read back: %v", err)
	}
	if err := s.ReadPage(id+1, buf); !errors.Is(err, pagestore.ErrPageNotFound) {
		t.Errorf("reading a page that was never allocated: %v", err)
	}
	if n, err := s.ReadPages([]pagestore.PageID{id, id + 1}, [][]byte{buf, make([]byte, pageSize)}); n != 1 || err != nil {
		t.Errorf("ReadPages over a missing page: %d, %v", n, err)
	}
	if err := s.Free(id + 1); !errors.Is(err, pagestore.ErrPageNotFound) {
		t.Errorf("freeing a page that was never allocated: %v", err)
	}
	want := storeCounts{ReadCalls: 3, ReadPages: 2, WriteCalls: 1, AllocCalls: 1, FreeCalls: 1}
	got := s.counts()
	got.ReadNs, got.WriteNs, got.AllocNs, got.FreeNs = 0, 0, 0, 0
	if got != want {
		t.Errorf("counts %+v, want %+v", got, want)
	}

	s.on.Store(false)
	if err := s.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	if after := s.counts(); after.ReadCalls != 3 {
		t.Errorf("a call with timing off was counted: %+v", after)
	}
}

func TestPercentileAndMedians(t *testing.T) {
	d := func(v ...int) []time.Duration {
		out := make([]time.Duration, len(v))
		for i, x := range v {
			out[i] = time.Duration(x)
		}
		return out
	}
	sorted := d(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.01, 1}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d", got)
	}
	// Three passes over two queries.
	got := perQueryBest(d(10, 22, 900, 20, 12, 21), 2)
	if got[0] != 10 || got[1] != 20 {
		t.Errorf("perQueryBest = %v", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
}

// A traced span's self time is its duration less its children and the
// device time of its own store calls.
func TestTraceSelfTime(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", 0)
	tr.op("core.query", root, 1, tr.t0.Add(10), 100, storeCounts{ReadCalls: 2, ReadPages: 2, ReadNs: 30})
	tr.end(root)
	tr.spans[0].Start, tr.spans[0].End = 0, 1000
	sum := tr.finish()
	if tr.spans[0].Self != 900 || tr.spans[1].Self != 70 {
		t.Errorf("self times %d and %d, want 900 and 70", tr.spans[0].Self, tr.spans[1].Self)
	}
	byName := map[string]nameSummary{}
	for _, s := range sum {
		byName[s.Name] = s
	}
	if s := byName["pagestore.store"]; s.Count != 2 || s.TotalNs != 30 {
		t.Errorf("store summary %+v", s)
	}
}

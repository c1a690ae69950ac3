package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"time"
)

// metricDef names one reported number. The tables below are the source of
// BENCHMARK.json (go run . -manifest prints it; the test compares the two),
// so a metric cannot be printed without being declared or the reverse.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end only: share of the parent's median it may worsen by
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the numbers a user of the index sees. Every workload reports
// every one of them from an untraced run, and none is ever 0: the read
// workloads end with a short commit phase, write_mix reads beside a writer,
// and pages_per_query comes from a cold-cache probe pass (the paper's
// Fig. 8/9 protocol) even where the timed queries run warm.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"query_p50_ms", "ms", lower, 0.25},
	{"query_slow_ms", "ms", lower, 0.25},
	{"queries_per_s", "1/s", higher, 0.25},
	{"commit_p50_ms", "ms", lower, 0.25},
	{"pages_per_query", "pages", lower, 0.02},
	{"index_pages", "pages", lower, 0.02},
	{"live_heap_mb", "MB", lower, 0.05},
}

// perLayer are the traced run's numbers, one group per module of the repo.
// README.md says which end-to-end metric each should move on which workload.
var perLayer = []metricDef{
	{Name: "workload.gen_relation_s", Unit: "s", Better: lower},
	{Name: "workload.gen_queries_s", Unit: "s", Better: lower},

	{Name: "core.build_s", Unit: "s", Better: lower},
	{Name: "core.save_s", Unit: "s", Better: lower},
	{Name: "core.open_s", Unit: "s", Better: lower},
	{Name: "core.warmup_s", Unit: "s", Better: lower},

	{Name: "core.stage.route_ns", Unit: "ns", Better: lower},
	{Name: "core.stage.sweep_ns", Unit: "ns", Better: lower},
	{Name: "core.stage.sweep2_ns", Unit: "ns", Better: lower},
	{Name: "core.stage.dedup_ns", Unit: "ns", Better: lower},
	{Name: "core.stage.refine_ns", Unit: "ns", Better: lower},
	{Name: "core.stage.other_ns", Unit: "ns", Better: lower},
	{Name: "core.query.p99_ms", Unit: "ms", Better: lower},
	{Name: "core.query.per_s", Unit: "1/s", Better: higher},
	{Name: "core.candidates_per_query", Unit: "count", Better: lower},
	{Name: "core.results_per_query", Unit: "count", Better: higher},
	{Name: "core.false_hits_per_query", Unit: "count", Better: lower},
	{Name: "core.duplicates_per_query", Unit: "count", Better: lower},
	{Name: "core.leaves_per_query", Unit: "pages", Better: lower},
	{Name: "core.useful_ratio", Unit: "ratio", Better: higher},
	{Name: "core.path.t2", Unit: "ratio", Better: higher},
	{Name: "core.path.t1_fallback", Unit: "ratio", Better: lower},
	{Name: "core.path.restricted", Unit: "ratio", Better: higher},
	{Name: "core.allocs_per_query", Unit: "count", Better: lower},
	{Name: "core.bytes_per_query", Unit: "B", Better: lower},

	{Name: "core.cstage.stage_ns", Unit: "ns", Better: lower},
	{Name: "core.cstage.shadow_ns", Unit: "ns", Better: lower},
	{Name: "core.cstage.publish_ns", Unit: "ns", Better: lower},
	{Name: "core.cstage.reclaim_ns", Unit: "ns", Better: lower},
	{Name: "core.cstage.other_ns", Unit: "ns", Better: lower},
	{Name: "core.cstage.cloned_per_commit", Unit: "pages", Better: lower},
	{Name: "core.cstage.freed_per_commit", Unit: "pages", Better: lower},
	{Name: "core.commit.p99_ms", Unit: "ms", Better: lower},
	{Name: "core.commit.per_s", Unit: "1/s", Better: higher},
	{Name: "core.allocs_per_commit", Unit: "count", Better: lower},
	{Name: "core.mvcc.reclaim_backlog", Unit: "pages", Better: lower},
	{Name: "core.mvcc.read_ratio", Unit: "ratio", Better: lower},
	{Name: "core.batch.speedup", Unit: "ratio", Better: higher},

	{Name: "btree.descend_ns", Unit: "ns", Better: lower},
	{Name: "btree.sweep_warm_ns_per_entry", Unit: "ns", Better: lower},
	{Name: "btree.sweep_cold_ns_per_leaf", Unit: "ns", Better: lower},
	{Name: "btree.bulkload_ns_per_entry", Unit: "ns", Better: lower},
	{Name: "btree.insert_ns", Unit: "ns", Better: lower},
	{Name: "btree.delete_ns", Unit: "ns", Better: lower},
	{Name: "btree.cow_insert_ns", Unit: "ns", Better: lower},
	{Name: "btree.cow_clones_per_insert", Unit: "pages", Better: lower},
	{Name: "btree.descents_per_query", Unit: "count", Better: lower},
	{Name: "btree.viewcache_hit_rate", Unit: "ratio", Better: higher},

	{Name: "pagestore.store.read_calls", Unit: "1/query", Better: lower},
	{Name: "pagestore.store.read_pages", Unit: "1/query", Better: lower},
	{Name: "pagestore.store.read_ns", Unit: "ns/call", Better: lower},
	{Name: "pagestore.store.write_calls", Unit: "1/commit", Better: lower},
	{Name: "pagestore.store.write_ns", Unit: "ns/call", Better: lower},
	{Name: "pagestore.store.alloc_calls", Unit: "1/commit", Better: lower},
	{Name: "pagestore.store.free_calls", Unit: "1/commit", Better: lower},
	{Name: "pagestore.pool.logical_reads", Unit: "1/query", Better: lower},
	{Name: "pagestore.pool.physical_reads", Unit: "1/query", Better: lower},
	{Name: "pagestore.pool.hit_rate", Unit: "ratio", Better: higher},
	{Name: "pagestore.pool.evictions", Unit: "1/query", Better: lower},
	{Name: "pagestore.pool.clones", Unit: "1/commit", Better: lower},
	{Name: "pagestore.pool.writes", Unit: "1/commit", Better: lower},
	{Name: "pagestore.pool.get_hit_ns", Unit: "ns", Better: lower},
	{Name: "pagestore.pool.get_miss_ns", Unit: "ns", Better: lower},

	{Name: "constraint.matches_ns", Unit: "ns", Better: lower},
	{Name: "constraint.matches_allocs", Unit: "count", Better: lower},
	{Name: "geom.top_ns", Unit: "ns", Better: lower},
	{Name: "geom.bot_ns", Unit: "ns", Better: lower},
	{Name: "geom.env_eval_ns", Unit: "ns", Better: lower},
	{Name: "geom.extension_ns", Unit: "ns", Better: lower},

	{Name: "obs.trace_overhead", Unit: "ratio", Better: lower},
}

// manifest renders BENCHMARK.json from the tables above and the workload
// specs. Per-layer metrics carry no bound.
func manifest() ([]byte, error) {
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []layer     `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEnd,
	}
	for _, sp := range specs {
		doc.Workloads = append(doc.Workloads, wl{sp.name, sp.why})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of sorted.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sortedCopy(d []time.Duration) []time.Duration {
	s := slices.Clone(d)
	slices.Sort(s)
	return s
}

func sum(d []time.Duration) time.Duration {
	var t time.Duration
	for _, x := range d {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// ratio is a/b, or 0 when b is 0 (a metric that does not apply to the
// workload reads 0 instead of NaN, which JSON cannot carry).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// resultLine is the last line of standard output: the contract with the
// driver that runs the benchmark.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick projects the gathered numbers onto defs; a declared metric the run
// did not produce is an error, so the printed set always equals the table.
func pick(defs []metricDef, got map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metricValue{v, d.Unit}
	}
	return out, nil
}

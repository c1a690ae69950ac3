// Package obs is the unified observability layer: atomic counters and
// gauges, lock-free log2-bucketed latency histograms, named per-index
// registries, and one trace type that attributes latency and page work
// to the stages of a query (slope routing, envelope sweeps, refinement)
// or of a commit (staging, shadow, publish, reclaim).
//
// The package is stdlib-only and designed around one invariant: when no
// Observer is attached (core's Options.Observe is nil) the query path
// must not pay for it — no allocations, no atomic traffic, no branches
// beyond a nil check. Every hook type (SpanTimer, BatchTimer) is a
// value struct whose methods are no-ops on the zero value, so call
// sites read straight-line and the bare path stays bare. The guard is
// enforced by BenchmarkQueryBare/BenchmarkQueryObserved and an
// allocs-per-run test in core.
package obs

import (
	"sort"
	"sync"
)

// Registry is a named, concurrency-safe collection of metrics. Metrics
// are created on first use and live for the registry's lifetime;
// lookups after creation are read-locked only, and the hot-path
// operations on the metrics themselves (Inc, Record) never touch the
// registry again.
type Registry struct {
	name string

	mu    sync.RWMutex
	items map[string]any
}

// NewRegistry creates an empty registry. The name labels snapshots so
// several indexes can expose metrics side by side.
func NewRegistry(name string) *Registry {
	return &Registry{name: name, items: make(map[string]any)}
}

// Name returns the registry's label.
func (r *Registry) Name() string { return r.name }

// getOrCreate returns the metric registered under name, creating it
// with mk on first use. Callers assert the concrete type; registering
// the same name with two different metric kinds is a programming error
// and panics at the caller's type assertion.
func (r *Registry) getOrCreate(name string, mk func() any) any {
	r.mu.RLock()
	v := r.items[name]
	r.mu.RUnlock()
	if v != nil {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v := r.items[name]; v != nil {
		return v
	}
	v = mk()
	r.items[name] = v
	return v
}

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name string) *Counter {
	return r.getOrCreate(name, func() any { return new(Counter) }).(*Counter)
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	return r.getOrCreate(name, func() any { return new(Gauge) }).(*Gauge)
}

// Histogram returns the histogram registered under name, creating it
// on first use.
func (r *Registry) Histogram(name string) *Histogram {
	return r.getOrCreate(name, func() any { return new(Histogram) }).(*Histogram)
}

// Func registers a callback evaluated at snapshot time — the bridge
// for gauges whose truth lives elsewhere (pool residency, cache
// occupancy) and would be wasteful to mirror on every mutation.
func (r *Registry) Func(name string, f func() any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.items[name] = funcMetric(f)
}

type funcMetric func() any

// Snapshot returns every metric's current value keyed by name:
// counters as uint64, gauges as int64, histograms as
// HistogramSnapshot, funcs as whatever they return. Func callbacks run
// outside the registry lock so they may create metrics or snapshot
// other registries without deadlocking.
func (r *Registry) Snapshot() map[string]any {
	r.mu.RLock()
	items := make(map[string]any, len(r.items))
	for k, v := range r.items {
		items[k] = v
	}
	r.mu.RUnlock()

	out := make(map[string]any, len(items))
	for name, v := range items {
		switch m := v.(type) {
		case *Counter:
			out[name] = m.Load()
		case *Gauge:
			out[name] = m.Load()
		case *Histogram:
			out[name] = m.Snapshot()
		case funcMetric:
			out[name] = m()
		}
	}
	return out
}

// Names returns the registered metric names in sorted order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	names := make([]string, 0, len(r.items))
	for k := range r.items {
		names = append(names, k)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return names
}

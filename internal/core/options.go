// Package core implements the paper's contribution: dual-representation
// indexing of linear constraint databases for ALL/EXIST half-plane
// selections.
//
// For every slope a_i in a predefined set S, two B⁺-trees index the tuples:
// B_i^up over TOP^P(a_i) and B_i^down over BOT^P(a_i) (Section 3). Queries
// whose slope lies in S are answered exactly with one tree search and a
// one-directional leaf sweep. Queries with other slopes are approximated:
//
//   - Technique T1 (Section 4.1) rewrites the query into two app-queries
//     with slopes from S (Table 1 fixes their operators; an ALL query
//     becomes one ALL plus one EXIST app-query), executes both, and
//     refines away false hits. Results can contain duplicates.
//   - Technique T2 (Section 4.2–4.3) searches a single tree — the one for
//     the S-slope nearest the query slope — using per-leaf handicap values
//     to bound a second, disjoint sweep in the same tree. No duplicates;
//     false hits are removed by the same refinement step.
//
// Both techniques store tuples exactly (no geometry is approximated — only
// the query is), handle unbounded tuples via ±Inf surface values, and
// process ALL and EXIST selections uniformly.
package core

import (
	"fmt"
	"math"
	"sort"

	"dualcdb/internal/geom"
	"dualcdb/internal/obs"
	"dualcdb/internal/pagestore"
)

// Technique selects how out-of-set query slopes are processed.
type Technique int

const (
	// T2 is the single-tree handicap technique of Section 4.2 (default).
	T2 Technique = iota
	// T1 is the two-app-query technique of Section 4.1.
	T1
	// RestrictedOnly rejects query slopes outside S (Section 3 only).
	RestrictedOnly
)

// String renders the technique name.
func (t Technique) String() string {
	switch t {
	case T1:
		return "T1"
	case RestrictedOnly:
		return "restricted"
	default:
		return "T2"
	}
}

// Options configures a 2-D dual index over a slope set.
type Options struct {
	// Slopes is the predefined set S of angular coefficients. At least one;
	// at least two for T1/T2 approximation. Sorted internally.
	Slopes []float64
	// Technique picks the approximation technique for slopes outside S.
	Technique Technique
	// PageSize is the page size of the backing store in bytes (default
	// 1024, the paper's setting).
	PageSize int
	// PoolPages is the capacity in frames (default 512, at least 8) of the
	// buffer pool the index builds over its store and owns: one segmented
	// LRU under one lock, whatever the core count.
	PoolPages int
	// Store optionally supplies the index's page device (e.g. a
	// pagestore.FileStore for an on-disk database); nil gives it a fresh
	// MemStore of PageSize pages. The store must be fresh — its page 1
	// becomes the catalog, which Save writes.
	Store pagestore.Store
	// Observe attaches a metrics-and-tracing observer to every query this
	// index executes: per-path counters and latency histograms, stage
	// spans (routing, sweeps, dedup, refinement), a slow-query log and a
	// slow-trace ring. nil (the default) compiles to a handful of nil
	// checks on the query path — zero allocations, no atomics — which the
	// BenchmarkQueryBare/BenchmarkQueryObserved pair guards.
	Observe *obs.Observer
}

// OptionsD configures a d-dimensional dual index (Section 4.4): the same
// engine over a site set in slope space E^{d−1} instead of a slope set.
type OptionsD struct {
	// Sites is the predefined set S of slope points in E^{d−1}. Their
	// Voronoi cells, and hence the region where T2 approximation applies,
	// are clamped to the sites' bounding box expanded by the largest
	// inter-site distance.
	Sites []geom.Point
	// PageSize / PoolPages / Store as in Options.
	PageSize  int
	PoolPages int
	Store     pagestore.Store
	// Observe as in Options: attaches per-query metrics and tracing; nil
	// keeps the query path allocation-free.
	Observe *obs.Observer
}

// defaultPoolPages is the buffer-pool capacity in frames when PoolPages is
// unset.
const defaultPoolPages = 512

// storageDefaults fills the page-store defaults both constructors share.
func (o *Options) storageDefaults() {
	if o.PageSize <= 0 {
		o.PageSize = pagestore.DefaultPageSize
	}
	if o.PoolPages <= 0 {
		o.PoolPages = defaultPoolPages
	}
}

// DefaultPool returns the buffer pool the constructors give an index on a
// store it owns when PoolPages is unset: 512 frames. Reopen a saved
// database over it with Open.
func DefaultPool(store pagestore.Store) *pagestore.Pool {
	return pagestore.NewPool(store, defaultPoolPages)
}

// normalize validates the options and fills defaults, returning the sorted
// slope set.
func (o *Options) normalize() ([]float64, error) {
	if len(o.Slopes) == 0 {
		return nil, fmt.Errorf("core: empty slope set S")
	}
	s := append([]float64(nil), o.Slopes...)
	sort.Float64s(s)
	if err := checkSlopes(s, o.Technique); err != nil {
		return nil, err
	}
	o.storageDefaults()
	return s, nil
}

// checkSlopes validates a slope set given in ascending order — as
// normalize sorts it and as the catalog persists it — for technique tech.
func checkSlopes(s []float64, tech Technique) error {
	for _, a := range s {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return fmt.Errorf("core: invalid slope %v in S", a)
		}
	}
	// Reject slopes closer than the geometric tolerance, not just exact
	// duplicates: two trees for indistinguishable slopes waste pages, and
	// T2's nearest-slope selection and handicap bounds divide by slope
	// differences that must stay well clear of Eps.
	for i := 1; i < len(s); i++ {
		if s[i]-s[i-1] <= geom.Eps {
			return fmt.Errorf("core: slopes %g and %g in S are out of order or closer than the tolerance %g", s[i-1], s[i], geom.Eps)
		}
	}
	if tech != RestrictedOnly && len(s) < 2 {
		return fmt.Errorf("core: techniques T1/T2 need at least two slopes, got %d", len(s))
	}
	return nil
}

// EquiangularSlopes returns k slopes spread as the tangents of k equally
// spaced angles in (−π/2, π/2) — a natural choice of S when query slopes
// are uniform in angle, as in the paper's workloads (k = 2..5 there).
func EquiangularSlopes(k int) []float64 {
	if k < 1 {
		return nil
	}
	out := make([]float64, k)
	for i := 0; i < k; i++ {
		ang := -math.Pi/2 + math.Pi*float64(i+1)/float64(k+1)
		out[i] = math.Tan(ang)
	}
	return out
}

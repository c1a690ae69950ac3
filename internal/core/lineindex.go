package core

import (
	"fmt"
	"slices"
	"sort"

	"dualcdb/internal/constraint"
	"dualcdb/internal/interval"
	"dualcdb/internal/pagestore"
)

// LineIndex is the footnote-6 alternative realization of the restricted
// structure: for each slope a_i ∈ S it stores the tuples' dual intervals
// [BOT^P(a_i), TOP^P(a_i)] in a paged interval tree. A line y = a_i·x + b
// intersects tuple t_P iff b stabs its interval, so restricted
// line-stabbing queries are answered in O(log n + t/B) pages — the same
// bound the two-B⁺-tree solution achieves by intersecting two sweeps, but
// with a single structure traversal (compare BenchmarkLineStabbing).
//
// The structure is static (rebuild to refresh) and restricted to slopes in
// S; it complements, not replaces, the dual Index.
type LineIndex struct {
	rel    *constraint.Relation
	slopes []float64
	trees  []*interval.Tree
	pool   *pagestore.Pool
}

// BuildLineIndex constructs the interval trees over every satisfiable
// tuple of rel.
func BuildLineIndex(rel *constraint.Relation, slopes []float64, pool *pagestore.Pool) (*LineIndex, error) {
	if rel.Dim() != 2 {
		return nil, fmt.Errorf("core: LineIndex is 2-dimensional")
	}
	if len(slopes) == 0 {
		return nil, fmt.Errorf("core: empty slope set")
	}
	s := append([]float64(nil), slopes...)
	sort.Float64s(s)
	if pool == nil {
		pool = pagestore.NewPool(pagestore.NewMemStore(pagestore.DefaultPageSize), 1<<12)
	}
	li := &LineIndex{rel: rel, slopes: s, pool: pool}
	for _, a := range s {
		var ivs []interval.Interval
		var scanErr error
		slope := []float64{a}
		rel.Scan(func(t *constraint.Tuple) bool {
			lo, err := t.Bot(slope)
			if err != nil {
				scanErr = err
				return false
			}
			if t.IsSatisfiable() {
				hi, _ := t.Top(slope)
				ivs = append(ivs, interval.Interval{Lo: lo, Hi: hi, TID: uint32(t.ID())})
			}
			return true
		})
		if scanErr != nil {
			return nil, scanErr
		}
		tr, err := interval.Build(pool, ivs)
		if err != nil {
			return nil, err
		}
		li.trees = append(li.trees, tr)
	}
	return li, nil
}

// QueryLine reports the tuples intersecting the line y = a·x + b; the
// slope must be a member of S exactly (this is the restricted structure: a
// slope one ulp off has other intervals).
func (li *LineIndex) QueryLine(a, b float64) ([]constraint.TupleID, QueryStats, error) {
	idx := slices.IndexFunc(li.slopes, func(s float64) bool {
		return s == a // exact on purpose: only then were the member's intervals computed at this slope
	})
	if idx < 0 {
		return nil, QueryStats{}, fmt.Errorf("core: slope %g not in the LineIndex slope set", a)
	}
	before := li.pool.Stats().PhysicalReads
	st := QueryStats{Path: "interval-stab"}
	var ids []constraint.TupleID
	visited, err := li.trees[idx].Stab(b, func(iv interval.Interval) {
		ids = append(ids, constraint.TupleID(iv.TID))
	})
	if err != nil {
		return nil, QueryStats{}, err
	}
	st.LeavesSwept = visited
	st.Candidates = len(ids)
	st.Results = len(ids)
	st.PagesRead = li.pool.Stats().PhysicalReads - before
	slices.Sort(ids)
	return ids, st, nil
}

// Pages returns the total page count of all interval trees.
func (li *LineIndex) Pages() int {
	n := 0
	for _, tr := range li.trees {
		n += tr.Pages()
	}
	return n
}

// Pool exposes the buffer pool for I/O accounting.
func (li *LineIndex) Pool() *pagestore.Pool { return li.pool }

// Slopes returns the sorted slope set.
func (li *LineIndex) Slopes() []float64 { return append([]float64(nil), li.slopes...) }

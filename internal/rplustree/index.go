package rplustree

import (
	"fmt"
	"sort"

	"dualcdb/internal/constraint"
	"dualcdb/internal/geom"
	"dualcdb/internal/pagestore"
)

// Index is the relation-aware R⁺-tree: it stores the MBRs of the bounded
// tuples of a generalized relation and answers the same ALL/EXIST
// half-plane selections as the dual index, for a direct experimental
// comparison (Section 5).
//
// Limitations inherited from the structure (and exploited by the paper):
// unbounded tuples cannot be stored, and an ALL selection must be executed
// as an EXIST traversal plus refinement, because containment cannot be
// decided from clipped bounding boxes alone.
//
// The index is built once over the relation as it stands, as in the
// paper's experiments; it does not follow later writes to the relation, so
// a relation that changes needs a new Build.
type Index struct {
	rel  *constraint.Relation
	tree *Tree
	pool *pagestore.Pool

	// Skipped counts tuples the structure could not index (unbounded or
	// unsatisfiable extensions).
	Skipped int
}

// Options configures an R⁺-tree index.
type Options struct {
	// PageSize in bytes (default 1024) of the index's MemStore.
	PageSize int
	// PoolPages is the capacity in frames (default 512) of the buffer pool
	// the index builds over that store and owns.
	PoolPages int
}

// QueryStats reports how one R⁺-tree selection ran, in the terms the
// experiments compare with the dual index's (NodesVisited is its own).
type QueryStats struct {
	Path         string
	Candidates   int // object references touched (duplicates included)
	Results      int
	FalseHits    int
	Duplicates   int
	NodesVisited int
	PagesRead    uint64
}

// Result is a selection answer.
type Result struct {
	IDs   []constraint.TupleID
	Stats QueryStats
}

// Build bulk-loads an R⁺-tree over every bounded, satisfiable tuple of rel.
func Build(rel *constraint.Relation, opt Options) (*Index, error) {
	if rel.Dim() != 2 {
		return nil, fmt.Errorf("rplustree: relation dimension %d, want 2", rel.Dim())
	}
	if opt.PageSize <= 0 {
		opt.PageSize = pagestore.DefaultPageSize
	}
	if opt.PoolPages <= 0 {
		opt.PoolPages = 512
	}
	pool := pagestore.NewPool(pagestore.NewMemStore(opt.PageSize), opt.PoolPages)
	ix := &Index{rel: rel, pool: pool}
	var items []Item
	rel.Scan(func(t *constraint.Tuple) bool {
		if it, ok := itemFor(t); ok {
			items = append(items, it)
		} else {
			ix.Skipped++
		}
		return true
	})
	tree, err := Bulk(pool, items)
	if err != nil {
		return nil, err
	}
	ix.tree = tree
	return ix, nil
}

// itemFor derives the MBR item of a tuple from its generators; ok is false
// for tuples the R⁺-tree cannot store (empty or unbounded extensions).
func itemFor(t *constraint.Tuple) (it Item, ok bool) {
	if !t.IsBounded() {
		return Item{}, false
	}
	g := t.Generators()
	minX, maxX := g.Extent(0)
	minY, maxY := g.Extent(1)
	return Item{R: Rect{MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY}, TID: uint32(t.ID())}, true
}

// Query answers an ALL or EXIST half-plane selection. Both kinds traverse
// the nodes intersecting the half-plane (an ALL query cannot prune more:
// containment of a clipped box says nothing about the object — Section 1),
// deduplicate the references, and refine with the exact predicate.
func (ix *Index) Query(q constraint.Query) (Result, error) {
	if q.Dim() != 2 {
		return Result{}, fmt.Errorf("rplustree: query dimension %d", q.Dim())
	}
	before := ix.pool.Stats().PhysicalReads
	h := q.HalfSpace()
	le := h.Op == geom.LE
	st := QueryStats{Path: "rplus-" + q.Kind.String()}
	seen := make(map[uint32]int)
	visited, err := ix.tree.SearchHalfPlane(h.A[0], h.A[1], h.C, le, func(tid uint32, _ Rect) {
		st.Candidates++
		seen[tid]++
	})
	if err != nil {
		return Result{}, err
	}
	st.NodesVisited = visited
	ids := make([]constraint.TupleID, 0, len(seen))
	for tid, n := range seen {
		if n > 1 {
			st.Duplicates += n - 1
		}
		t, err := ix.rel.Get(constraint.TupleID(tid))
		if err != nil {
			return Result{}, fmt.Errorf("rplustree: candidate %d not in relation: %w", tid, err)
		}
		ok, err := q.Matches(t)
		if err != nil {
			return Result{}, err
		}
		if ok {
			ids = append(ids, constraint.TupleID(tid))
		} else {
			st.FalseHits++
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	st.Results = len(ids)
	st.PagesRead = ix.pool.Stats().PhysicalReads - before
	return Result{IDs: ids, Stats: st}, nil
}

// Pages returns the tree's page count.
func (ix *Index) Pages() int { return ix.tree.Pages() }

// Pool exposes the buffer pool for I/O accounting.
func (ix *Index) Pool() *pagestore.Pool { return ix.pool }

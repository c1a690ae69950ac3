package rplustree

import (
	"fmt"
	"math"

	"dualcdb/internal/pagestore"
)

// walkChain calls visit on every entry of the pinned leaf f and of the
// overflow pages chained behind it, stopping at the first error visit
// returns. It releases f and returns how many chained pages it read.
func (t *Tree) walkChain(f *pagestore.Frame, visit func(r Rect, tid uint32) error) (int, error) {
	chained := 0
	for {
		for i := 0; i < nodeCount(f); i++ {
			if err := visit(getEntry(f, i)); err != nil {
				f.Release()
				return chained, err
			}
		}
		next := overflow(f)
		if next == pagestore.InvalidPage {
			f.Release()
			return chained, nil
		}
		nf, err := t.pool.Get(next)
		f.Release()
		if err != nil {
			return chained, err
		}
		f = nf
		chained++
	}
}

// search visits every object whose MBR meets the query region, descending
// into every child region that meets it, and returns the number of tree
// nodes visited (chained pages included).
func (t *Tree) search(meets func(Rect) bool, emit func(tid uint32, r Rect)) (int, error) {
	visited := 0
	var walk func(id pagestore.PageID) error
	walk = func(id pagestore.PageID) error {
		f, err := t.pool.Get(id)
		if err != nil {
			return err
		}
		visited++
		if nodeType(f) == typeLeaf {
			chained, err := t.walkChain(f, func(r Rect, tid uint32) error {
				if meets(r) {
					emit(tid, r)
				}
				return nil
			})
			visited += chained
			return err
		}
		defer f.Release()
		for i := 0; i < nodeCount(f); i++ {
			r, cid := getEntry(f, i)
			if meets(r) {
				if err := walk(pagestore.PageID(cid)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	err := walk(t.root)
	return visited, err
}

// SearchHalfPlane visits every object whose MBR intersects the half-plane
// a·x + b·y + c θ 0 (le: θ is ≤). The same tid may be emitted repeatedly
// (the R⁺-tree duplication); callers deduplicate. It returns the number of
// tree nodes visited.
func (t *Tree) SearchHalfPlane(a, b, c float64, le bool, emit func(tid uint32, r Rect)) (int, error) {
	return t.search(func(r Rect) bool { return r.IntersectsHalfPlane(a, b, c, le) }, emit)
}

// SearchRect visits every object whose MBR intersects q (window queries;
// also used by tests to validate structure).
func (t *Tree) SearchRect(q Rect, emit func(tid uint32, r Rect)) error {
	_, err := t.search(q.Intersects, emit)
	return err
}

// CheckInvariants verifies the R⁺-tree structural invariants: sibling
// regions are pairwise disjoint (zero-area overlap), children lie within
// their parent regions, and every leaf entry intersects its leaf region.
func (t *Tree) CheckInvariants() error {
	var walk func(id pagestore.PageID, region Rect) error
	walk = func(id pagestore.PageID, region Rect) error {
		f, err := t.pool.Get(id)
		if err != nil {
			return err
		}
		if nodeType(f) == typeLeaf {
			_, err := t.walkChain(f, func(r Rect, tid uint32) error {
				if !r.Intersects(region) {
					return fmt.Errorf("rplustree: leaf %d entry (tid %d) outside region", id, tid)
				}
				return nil
			})
			return err
		}
		defer f.Release()
		var regions []Rect
		for i := 0; i < nodeCount(f); i++ {
			r, cid := getEntry(f, i)
			if !region.Contains(r) {
				return fmt.Errorf("rplustree: node %d child %d region escapes parent", id, i)
			}
			for _, o := range regions {
				ix := Rect{
					MinX: math.Max(r.MinX, o.MinX), MinY: math.Max(r.MinY, o.MinY),
					MaxX: math.Min(r.MaxX, o.MaxX), MaxY: math.Min(r.MaxY, o.MaxY),
				}
				if ix.Valid() && ix.Area() > 1e-9 {
					return fmt.Errorf("rplustree: node %d has overlapping child regions", id)
				}
			}
			regions = append(regions, r)
			if err := walk(pagestore.PageID(cid), r); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(t.root, WorldRect())
}

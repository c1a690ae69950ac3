// Package rplustree implements the R⁺-tree of Sellis, Roussopoulos and
// Faloutsos (VLDB 1987) — the baseline the paper compares against in
// Section 5. It is the partition variant: sibling regions are disjoint
// rectangles that together cover their parent's region (the root covers
// the whole plane), and an object whose MBR straddles several leaf regions
// is referenced from every one of them, so searches must deduplicate.
//
// Like the paper's experiments, the structure stores *bounded* objects
// only; EXIST selections traverse every node region intersecting the query
// half-plane, and ALL selections are approximated by an EXIST traversal
// followed by an exact refinement step — precisely the weakness the dual
// index exploits.
package rplustree

import "math"

// Rect is an axis-aligned rectangle, possibly with infinite extents (node
// regions partition the whole plane).
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// WorldRect covers the entire plane.
func WorldRect() Rect {
	return Rect{math.Inf(-1), math.Inf(-1), math.Inf(1), math.Inf(1)}
}

// Valid reports MinX ≤ MaxX and MinY ≤ MaxY.
func (r Rect) Valid() bool { return r.MinX <= r.MaxX && r.MinY <= r.MaxY }

// Bounded reports whether all four coordinates are finite. Stored objects
// must be bounded (the structure's documented limitation — only node
// regions extend to infinity); center and extent arithmetic in the build
// path would otherwise silently produce NaN from Inf − Inf.
func (r Rect) Bounded() bool {
	return !math.IsInf(r.MinX, 0) && !math.IsInf(r.MaxX, 0) &&
		!math.IsInf(r.MinY, 0) && !math.IsInf(r.MaxY, 0)
}

// Intersects reports whether the closed rectangles share a point.
func (r Rect) Intersects(o Rect) bool {
	return r.MinX <= o.MaxX && o.MinX <= r.MaxX && r.MinY <= o.MaxY && o.MinY <= r.MaxY
}

// Contains reports whether o lies entirely inside r.
func (r Rect) Contains(o Rect) bool {
	return r.MinX <= o.MinX && o.MaxX <= r.MaxX && r.MinY <= o.MinY && o.MaxY <= r.MaxY
}

// Union returns the bounding box of r and o.
func (r Rect) Union(o Rect) Rect {
	return Rect{
		MinX: math.Min(r.MinX, o.MinX), MinY: math.Min(r.MinY, o.MinY),
		MaxX: math.Max(r.MaxX, o.MaxX), MaxY: math.Max(r.MaxY, o.MaxY),
	}
}

// Area returns the rectangle's area: +Inf for unbounded regions, 0 for
// degenerate ones — including unbounded strips of zero width, whose naive
// width·height would be 0·Inf = NaN (and a NaN area poisons every split-cost
// comparison downstream, since all of them come out false).
func (r Rect) Area() float64 {
	if !r.Valid() {
		return 0
	}
	if math.IsInf(r.MinX, 0) || math.IsInf(r.MaxX, 0) || math.IsInf(r.MinY, 0) || math.IsInf(r.MaxY, 0) {
		if r.MinX == r.MaxX || r.MinY == r.MaxY { // exact sentinel equality on ±Inf coordinates
			return 0
		}
		return math.Inf(1)
	}
	return (r.MaxX - r.MinX) * (r.MaxY - r.MinY)
}

// IntersectsHalfPlane reports whether the rectangle meets the half-plane
// a·x + b·y + c θ 0 (θ encoded by le: true for ≤). The extreme corner in
// the constraint's favourable direction decides.
func (r Rect) IntersectsHalfPlane(a, b, c float64, le bool) bool {
	// Pick the corner minimizing (for ≤) or maximizing (for ≥) a·x + b·y.
	x, y := r.MinX, r.MinY
	if le {
		if a > 0 {
			x = r.MinX
		} else {
			x = r.MaxX
		}
		if b > 0 {
			y = r.MinY
		} else {
			y = r.MaxY
		}
		return evalCorner(a, b, c, x, y) <= 1e-9
	}
	if a > 0 {
		x = r.MaxX
	} else {
		x = r.MinX
	}
	if b > 0 {
		y = r.MaxY
	} else {
		y = r.MinY
	}
	return evalCorner(a, b, c, x, y) >= -1e-9
}

// evalCorner computes a·x + b·y + c, treating 0·(±Inf) as 0 so infinite
// node regions behave like limits of growing boxes.
func evalCorner(a, b, c, x, y float64) float64 {
	s := c
	if a != 0 {
		s += a * x
	}
	if b != 0 {
		s += b * y
	}
	return s
}

// cutLeft and cutRight split a rectangle at a coordinate on the given axis
// (0 = x, 1 = y).
func (r Rect) cutLeft(axis int, at float64) Rect {
	if axis == 0 {
		return Rect{r.MinX, r.MinY, at, r.MaxY}
	}
	return Rect{r.MinX, r.MinY, r.MaxX, at}
}

func (r Rect) cutRight(axis int, at float64) Rect {
	if axis == 0 {
		return Rect{at, r.MinY, r.MaxX, r.MaxY}
	}
	return Rect{r.MinX, at, r.MaxX, r.MaxY}
}

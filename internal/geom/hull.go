package geom

import "sort"

// ConvexHull2 returns the convex hull of the given 2-D points in
// counter-clockwise order using Andrew's monotone chain. Collinear points on
// the hull boundary are dropped; duplicate points are tolerated. The input
// slice is not modified. Degenerate hulls (a point or a segment) are
// returned with 1 or 2 vertices.
func ConvexHull2(pts []Point) []Point {
	if len(pts) == 0 {
		return nil
	}
	ps := make([]Point, len(pts))
	copy(ps, pts)
	sort.Slice(ps, func(i, j int) bool {
		if ps[i][0] != ps[j][0] { // sort needs a strict weak order over the raw bits
			return ps[i][0] < ps[j][0]
		}
		return ps[i][1] < ps[j][1]
	})
	// Remove duplicates.
	uniq := ps[:1]
	for _, p := range ps[1:] {
		if !p.Eq(uniq[len(uniq)-1]) {
			uniq = append(uniq, p)
		}
	}
	ps = uniq
	if len(ps) <= 2 {
		out := make([]Point, len(ps))
		copy(out, ps)
		return out
	}
	var lower, upper []Point
	for _, p := range ps {
		for len(lower) >= 2 && Cross2(lower[len(lower)-2], lower[len(lower)-1], p) <= Eps {
			lower = lower[:len(lower)-1]
		}
		lower = append(lower, p)
	}
	for i := len(ps) - 1; i >= 0; i-- {
		p := ps[i]
		for len(upper) >= 2 && Cross2(upper[len(upper)-2], upper[len(upper)-1], p) <= Eps {
			upper = upper[:len(upper)-1]
		}
		upper = append(upper, p)
	}
	hull := append(lower[:len(lower)-1], upper[:len(upper)-1]...)
	if len(hull) < 3 {
		// All points collinear after pruning: fall back to the two extremes.
		return []Point{ps[0], ps[len(ps)-1]}
	}
	return hull
}

// PolygonArea2 returns the (positive) area of the polygon whose vertices
// are given in order (either orientation) via the shoelace formula.
func PolygonArea2(verts []Point) float64 {
	if len(verts) < 3 {
		return 0
	}
	var s float64
	for i := range verts {
		j := (i + 1) % len(verts)
		s += verts[i][0]*verts[j][1] - verts[j][0]*verts[i][1]
	}
	if s < 0 {
		s = -s
	}
	return s / 2
}

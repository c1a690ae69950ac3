package geom

import (
	"fmt"
	"math"
)

// ext2Cons is the number of effective constraints extension2 enumerates in
// stack scratch: at most C(16, 2) = 120 candidate vertices and 4 + 3·16 ray
// candidates. Larger inputs grow their scratch on the heap.
const ext2Cons = 16

// extension2 is the extension of the 2-D half-planes hs, packed: the
// generators the d-generic enumeration finds for dim 2, the same numbers in
// the same order, written into one array of exactly their size. It repeats
// that enumeration's arithmetic step for step — SolveLinear's 2×2
// elimination, enumerateRays' candidates in their order, ConvexHull2's sort,
// dedup and pop rule — so the bits agree by construction (DESIGN.md §16 "The
// 2-D extension"), in stack scratch instead of an allocation per candidate.
// An input with no feasible candidate vertex still goes through
// linealityVertices and feasiblePoint, which allocate.
func extension2(hs []HalfSpace) (Generators, error) {
	var effBuf [ext2Cons]HalfSpace
	eff := effBuf[:0]
	for _, h := range hs {
		if h.Dim() != 2 {
			return Generators{}, fmt.Errorf("geom: constraint dimension %d != %d", h.Dim(), 2)
		}
		if h.IsTrivial() {
			if !h.TrivialSatisfiable() {
				return Generators{dim: 2}, nil
			}
			continue // vacuous
		}
		eff = append(eff, h)
	}

	// Vertices: every pair of boundaries, i < j, kept if feasible and new.
	var vertBuf [ext2Cons * (ext2Cons - 1) / 2][2]float64
	verts := vertBuf[:0]
	for i := range eff {
	pair:
		for j := i + 1; j < len(eff); j++ {
			x, ok := solve2(eff[i], eff[j])
			if !ok {
				continue
			}
			for _, h := range eff {
				if !containsLoose(h, x[:]) {
					continue pair
				}
			}
			for k := range verts {
				if Point(verts[k][:]).Eq(x[:]) {
					continue pair
				}
			}
			verts = append(verts, x)
		}
	}

	// Rays: the signed standard basis, the inward normals, then ± the
	// boundary direction of each constraint.
	var rayBuf [4 + 3*ext2Cons][2]float64
	rays := rayBuf[:0]
	for _, e := range [4][2]float64{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
		rays = addRay2(rays, eff, e)
	}
	for _, h := range eff {
		n := [2]float64{h.A[0], h.A[1]}
		if h.Op == LE {
			n = [2]float64{-1 * n[0], -1 * n[1]} // Point.Scale(-1)
		}
		rays = addRay2(rays, eff, n)
	}
	for _, h := range eff {
		v := nullVec2(h.A)
		rays = addRay2(rays, eff, v)
		rays = addRay2(rays, eff, [2]float64{-1 * v[0], -1 * v[1]})
	}

	if len(verts) == 0 {
		// No extreme point: empty, or a set holding a line.
		lv := linealityVertices(eff, 2)
		if len(lv) == 0 {
			seed, ok := feasiblePoint(eff, 2)
			if !ok {
				return Generators{dim: 2}, nil
			}
			lv = []Point{seed}
		}
		for _, v := range lv {
			verts = append(verts, [2]float64{v[0], v[1]})
		}
	}

	var chainBuf [2 * len(vertBuf)]int32
	var chain []int32
	if len(rays) == 0 && len(verts) >= 3 {
		verts, chain = hull2(verts, chainBuf[:0])
	}
	nv := len(verts)
	if chain != nil {
		nv = len(chain)
	}
	g := Generators{gen: make([]float64, 0, 2*(len(rays)+nv)), nrays: 2 * len(rays), dim: 2}
	for _, r := range rays {
		g.gen = append(g.gen, r[0], r[1])
	}
	if chain == nil {
		for _, v := range verts {
			g.gen = append(g.gen, v[0], v[1])
		}
	} else {
		for _, k := range chain {
			g.gen = append(g.gen, verts[k][0], verts[k][1])
		}
	}
	return g, nil
}

// solve2 is SolveLinear on the rows (g.A | −g.C) and (h.A | −h.C),
// operation for operation: partial pivoting in column 0, a pivot at or below
// Eps in magnitude is singular, and each elimination is skipped when its
// factor is zero.
func solve2(g, h HalfSpace) (x [2]float64, ok bool) {
	m := [2][3]float64{{g.A[0], g.A[1], -g.C}, {h.A[0], h.A[1], -h.C}}
	if math.Abs(m[1][0]) > math.Abs(m[0][0]) {
		m[0], m[1] = m[1], m[0]
	}
	if math.Abs(m[0][0]) <= Eps {
		return x, false
	}
	inv := 1 / m[0][0]
	if f := m[1][0] * inv; f != 0 {
		for c := 0; c <= 2; c++ {
			m[1][c] -= f * m[0][c]
		}
	}
	if math.Abs(m[1][1]) <= Eps {
		return x, false
	}
	inv = 1 / m[1][1]
	if f := m[0][1] * inv; f != 0 {
		for c := 1; c <= 2; c++ {
			m[0][c] -= f * m[1][c]
		}
	}
	x[0] = m[0][2] / m[0][0]
	x[1] = m[1][2] / m[1][1]
	return x, true
}

// nullVec2 is NullSpaceBasis of the single row a (not trivial: some
// |a_i| > Eps): the free coordinate set to 1, the pivot's solved, divided by
// the norm — which is at least 1, so the basis's small-norm skip never
// applies.
func nullVec2(a []float64) [2]float64 {
	var x [2]float64
	if math.Abs(a[0]) > Eps { // pivot column 0, free column 1
		x[1] = 1
		x[0] = -a[1] / a[0]
	} else { // pivot column 1
		x[0] = 1
		x[1] = -a[0] / a[1]
	}
	var norm float64
	for _, v := range x {
		norm += v * v
	}
	norm = math.Sqrt(norm)
	for i := range x {
		x[i] /= norm
	}
	return x
}

// addRay2 is enumerateRays' add: a candidate that is not zero is normalised
// as Point.Normalize does and appended if every constraint allows it and no
// kept ray equals it within Eps.
func addRay2(rays [][2]float64, hs []HalfSpace, d [2]float64) [][2]float64 {
	if Point(d[:]).IsZero() {
		return rays
	}
	if n := Point(d[:]).Norm(); !(n < Eps) {
		s := 1 / n
		d = [2]float64{s * d[0], s * d[1]}
	}
	for _, h := range hs {
		if !h.AllowsDirection(d[:]) {
			return rays
		}
	}
	for k := range rays {
		if Point(rays[k][:]).Eq(d[:]) {
			return rays
		}
	}
	return append(rays, d)
}

// hull2 is ConvexHull2 on ps, in place: it sorts ps by (x, y) with
// sort.Slice's comparator — by insertion, which is what sort.Slice runs on
// up to 12 points, and on more gives the same order whenever no two points
// compare equal — drops each point Eq to the one kept before it, and returns
// the remaining prefix with the hull's counter-clockwise chain as indices
// into it, built in chain's storage. Fewer than three points are their own
// chain (nil).
func hull2(ps [][2]float64, chain []int32) ([][2]float64, []int32) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && less2(ps[j], ps[j-1]); j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
	n := 1
	for _, p := range ps[1:] {
		if !Point(p[:]).Eq(ps[n-1][:]) {
			ps[n] = p
			n++
		}
	}
	ps = ps[:n]
	if n <= 2 {
		return ps, nil
	}
	if cap(chain) < 2*n {
		chain = make([]int32, 0, 2*n)
	}
	// The lower chain, then the upper chain from the lower one's last point,
	// ps[n−1], which is where the upper chain starts.
	turns := func(c []int32, k int) bool {
		return Cross2(ps[c[len(c)-2]][:], ps[c[len(c)-1]][:], ps[k][:]) <= Eps
	}
	for k := 0; k < n; k++ {
		for len(chain) >= 2 && turns(chain, k) {
			chain = chain[:len(chain)-1]
		}
		chain = append(chain, int32(k))
	}
	base := len(chain) - 1
	for k := n - 2; k >= 0; k-- {
		for len(chain)-base >= 2 && turns(chain, k) {
			chain = chain[:len(chain)-1]
		}
		chain = append(chain, int32(k))
	}
	// lower[:−1] + upper[:−1]: the upper chain ends at ps[0], the first.
	chain = chain[:len(chain)-1]
	if len(chain) < 3 {
		// All points collinear after pruning: the two extremes.
		return ps, append(chain[:0], 0, int32(n-1))
	}
	return ps, chain
}

// less2 is ConvexHull2's sort order over the raw bits: x, then y.
func less2(a, b [2]float64) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

package geom

import (
	"errors"
	"fmt"
	"math"
)

// Polyhedron is a closed convex polyhedron in E^d in vertex/ray
// (V-) representation: the set conv(Verts) + cone(Rays). It may be empty,
// bounded (no rays) or unbounded. When built from half-spaces the original
// H-representation is retained in HS, which makes point-membership tests
// exact and cheap.
//
// The V-representation is what the dual transform of the paper consumes:
// the TOP/BOT surfaces of Section 2.1 are maxima/minima of the dual
// hyperplanes of the vertices, with the recession rays deciding where the
// surfaces become infinite (the paper's "virtual vertices at infinity").
type Polyhedron struct {
	// Verts are the generating points. For a non-empty polyhedron there is
	// at least one. For full-dimensional bounded 2-D polyhedra they are the
	// extreme points in counter-clockwise order.
	Verts []Point
	// Rays are unit generator directions of the recession cone; empty for
	// bounded polyhedra.
	Rays []Point
	// HS is the originating H-representation when known, nil otherwise.
	HS []HalfSpace

	dim   int
	empty bool
}

// ErrNoHRep is returned by operations that require the half-space
// representation when the polyhedron was built from vertices only.
var ErrNoHRep = errors.New("geom: polyhedron has no half-space representation")

// EmptyPolyhedron returns the empty polyhedron in E^dim.
func EmptyPolyhedron(dim int) Polyhedron {
	return Polyhedron{dim: dim, empty: true}
}

// FromVertices builds a polyhedron from generating points and optional ray
// directions (which are normalized). In E² bounded polyhedra get their
// vertex set reduced to the convex hull in CCW order and an
// H-representation derived from the hull edges.
func FromVertices(verts []Point, rays []Point) (Polyhedron, error) {
	if len(verts) == 0 {
		if len(rays) != 0 {
			return Polyhedron{}, errors.New("geom: rays without vertices")
		}
		return Polyhedron{}, errors.New("geom: no vertices")
	}
	dim := verts[0].Dim()
	p := Polyhedron{dim: dim}
	for _, v := range verts {
		if v.Dim() != dim {
			return Polyhedron{}, fmt.Errorf("geom: vertex dimension %d != %d", v.Dim(), dim)
		}
		p.Verts = append(p.Verts, v.Clone())
	}
	for _, r := range rays {
		if r.Dim() != dim {
			return Polyhedron{}, fmt.Errorf("geom: ray dimension %d != %d", r.Dim(), dim)
		}
		if r.IsZero() {
			continue
		}
		p.Rays = append(p.Rays, r.Normalize())
	}
	if dim == 2 && len(p.Rays) == 0 {
		p.Verts = ConvexHull2(p.Verts)
		p.HS = edgesToHalfPlanes(p.Verts)
	}
	return p, nil
}

// edgesToHalfPlanes derives the H-representation of a bounded 2-D convex
// polygon given its CCW-ordered vertices. Degenerate polygons (point,
// segment) are handled by emitting equality pairs.
func edgesToHalfPlanes(verts []Point) []HalfSpace {
	switch len(verts) {
	case 0:
		return nil
	case 1:
		v := verts[0]
		return []HalfSpace{
			HalfPlane2(1, 0, -v[0], LE), HalfPlane2(1, 0, -v[0], GE),
			HalfPlane2(0, 1, -v[1], LE), HalfPlane2(0, 1, -v[1], GE),
		}
	case 2:
		a, b := verts[0], verts[1]
		d := b.Sub(a)
		// Line through a,b: n·x = n·a with n ⟂ d.
		n := Point{-d[1], d[0]}
		c := -n.Dot(a)
		hs := []HalfSpace{
			{A: []float64{n[0], n[1]}, C: c, Op: LE},
			{A: []float64{n[0], n[1]}, C: c, Op: GE},
		}
		// Clamp to the segment with two half-planes orthogonal to d.
		hs = append(hs,
			HalfSpace{A: []float64{d[0], d[1]}, C: -d.Dot(b), Op: LE},
			HalfSpace{A: []float64{d[0], d[1]}, C: -d.Dot(a), Op: GE},
		)
		return hs
	}
	hs := make([]HalfSpace, 0, len(verts))
	for i := range verts {
		a, b := verts[i], verts[(i+1)%len(verts)]
		d := b.Sub(a)
		// Inward normal for CCW order is (-dy, dx); constraint n·x ≥ n·a.
		n := Point{-d[1], d[0]}
		hs = append(hs, HalfSpace{A: []float64{n[0], n[1]}, C: -n.Dot(a), Op: GE})
	}
	return hs
}

// FromHalfSpaces builds the polyhedron defined by the conjunction of the
// given half-spaces in E^dim (the extension of a generalized tuple,
// Section 2 of the paper). It enumerates vertices as feasible intersections
// of dim supporting hyperplanes and generator rays of the recession cone,
// handling empty, bounded and unbounded (including non-pointed) cases.
//
// The enumeration is brute force over constraint subsets — O(C(m,d)) — which
// matches this repository's workloads (m ≤ ~12, d ≤ 4).
func FromHalfSpaces(hs []HalfSpace, dim int) (Polyhedron, error) {
	p, err := fromHalfSpaces(hs, dim)
	if err == nil && !p.empty {
		p.HS = append([]HalfSpace(nil), hs...)
	}
	return p, err
}

// fromHalfSpaces is FromHalfSpaces without the H-representation: it reads
// hs and keeps none of it. In E² it is extension2's generators; its vertices
// and rays are views into their one array.
func fromHalfSpaces(hs []HalfSpace, dim int) (Polyhedron, error) {
	if dim == 2 {
		g, err := extension2(hs)
		if err != nil {
			return Polyhedron{}, err
		}
		return g.Polyhedron(), nil
	}
	return enumerate(hs, dim)
}

// enumerate is the d-generic enumeration behind fromHalfSpaces: every
// d-subset of boundaries for the vertices, the null spaces of every subset of
// up to d−1 normals for the rays. In E² it is the reference extension2's
// differential tests hold it to, bit for bit.
func enumerate(hs []HalfSpace, dim int) (Polyhedron, error) {
	if dim < 1 {
		return Polyhedron{}, fmt.Errorf("geom: invalid dimension %d", dim)
	}
	eff := make([]HalfSpace, 0, len(hs))
	for _, h := range hs {
		if h.Dim() != dim {
			return Polyhedron{}, fmt.Errorf("geom: constraint dimension %d != %d", h.Dim(), dim)
		}
		if h.IsTrivial() {
			if !h.TrivialSatisfiable() {
				return EmptyPolyhedron(dim), nil
			}
			continue // vacuous
		}
		eff = append(eff, h)
	}
	p := Polyhedron{dim: dim}

	// --- Vertices: feasible solutions of d boundary hyperplanes. ---
	verts := enumerateVertices(eff, dim)

	// --- Recession cone generators. ---
	rays := enumerateRays(eff, dim)

	if len(verts) == 0 {
		// The polyhedron is either empty or has no extreme points because it
		// contains a line (a slab, a half-plane, the whole space, …). Split
		// off the lineality space L and enumerate the generating points of
		// the pointed part P ∩ L⊥, so that conv(V) + cone(R) = P exactly.
		verts = linealityVertices(eff, dim)
		if len(verts) == 0 {
			// Last resort: any feasible point (covers numerically tricky
			// inputs); failure means the polyhedron is empty.
			seed, ok := feasiblePoint(eff, dim)
			if !ok {
				return EmptyPolyhedron(dim), nil
			}
			verts = []Point{seed}
		}
	}
	p.Verts = verts
	p.Rays = rays
	if dim == 2 && len(rays) == 0 && len(verts) >= 3 {
		p.Verts = ConvexHull2(p.Verts)
	}
	return p, nil
}

// enumerateVertices returns the feasible intersection points of every
// d-subset of constraint boundaries, deduplicated.
func enumerateVertices(hs []HalfSpace, dim int) []Point {
	var verts []Point
	idx := make([]int, dim)
	var rec func(start, k int)
	a := make([][]float64, dim)
	b := make([]float64, dim)
	rec = func(start, k int) {
		if k == dim {
			for i, j := range idx {
				a[i] = hs[j].A
				b[i] = -hs[j].C
			}
			x, ok := SolveLinear(a, b)
			if !ok {
				return
			}
			pt := Point(x)
			for _, h := range hs {
				if !containsLoose(h, pt) {
					return
				}
			}
			for _, v := range verts {
				if v.Eq(pt) {
					return
				}
			}
			verts = append(verts, pt)
			return
		}
		for i := start; i < len(hs); i++ {
			idx[k] = i
			rec(i+1, k+1)
		}
	}
	if len(hs) >= dim {
		rec(0, 0)
	}
	return verts
}

// linealityVertices handles polyhedra without extreme points. It computes
// the lineality space L (directions feasible both ways: the null space of
// all constraint normals), restricts the constraints to an orthonormal
// basis W of L⊥, enumerates the vertices of the restricted — now pointed —
// polyhedron, and maps them back into E^dim. The recession-cone generators
// produced by enumerateRays always include a generating set of L, so
// conv(result) + cone(rays) reproduces the polyhedron exactly.
func linealityVertices(hs []HalfSpace, dim int) []Point {
	normals := make([][]float64, len(hs))
	for i, h := range hs {
		normals[i] = h.A
	}
	lin := NullSpaceBasis(normals, dim)
	if len(lin) == 0 || len(lin) == dim {
		if len(lin) == dim {
			// No effective constraints: the whole space; the origin generates
			// together with the ± basis rays.
			return []Point{make(Point, dim)}
		}
		return nil // pointed: nothing to add here
	}
	w := orthoComplement(lin, dim)
	rdim := len(w)
	if rdim == 0 {
		return []Point{make(Point, dim)}
	}
	// Restrict each constraint to coordinates u over basis W:
	// h(W·u) = Σ_j (a·w_j)·u_j + c θ 0.
	rhs := make([]HalfSpace, 0, len(hs))
	for _, h := range hs {
		a := make([]float64, rdim)
		for j, wj := range w {
			for i := range wj {
				a[j] += h.A[i] * wj[i]
			}
		}
		rhs = append(rhs, HalfSpace{A: a, C: h.C, Op: h.Op})
	}
	rverts := enumerateVertices(rhs, rdim)
	if len(rverts) == 0 {
		// Either the restriction is empty or every restricted constraint is
		// trivial; fall back to a feasibility probe in restricted space.
		eff := rhs[:0:0]
		for _, h := range rhs {
			if h.IsTrivial() {
				if !h.TrivialSatisfiable() {
					return nil
				}
				continue
			}
			eff = append(eff, h)
		}
		if len(eff) == 0 {
			return []Point{make(Point, dim)}
		}
		seed, ok := feasiblePoint(eff, rdim)
		if !ok {
			return nil
		}
		rverts = []Point{seed}
	}
	verts := make([]Point, 0, len(rverts))
	for _, u := range rverts {
		v := make(Point, dim)
		for j, wj := range w {
			for i := range wj {
				v[i] += u[j] * wj[i]
			}
		}
		verts = append(verts, v)
	}
	return verts
}

// orthoComplement returns an orthonormal basis of the orthogonal complement
// of span(basis) in E^dim via Gram–Schmidt over the standard basis.
func orthoComplement(basis [][]float64, dim int) [][]float64 {
	ortho := make([][]float64, 0, dim)
	// First orthonormalize the given basis.
	for _, b := range basis {
		v := append([]float64(nil), b...)
		for _, o := range ortho {
			var dot float64
			for i := range v {
				dot += v[i] * o[i]
			}
			for i := range v {
				v[i] -= dot * o[i]
			}
		}
		var n float64
		for _, x := range v {
			n += x * x
		}
		n = math.Sqrt(n)
		if n > Eps {
			for i := range v {
				v[i] /= n
			}
			ortho = append(ortho, v)
		}
	}
	nLin := len(ortho)
	for e := 0; e < dim && len(ortho) < dim; e++ {
		v := make([]float64, dim)
		v[e] = 1
		for _, o := range ortho {
			var dot float64
			for i := range v {
				dot += v[i] * o[i]
			}
			for i := range v {
				v[i] -= dot * o[i]
			}
		}
		var n float64
		for _, x := range v {
			n += x * x
		}
		n = math.Sqrt(n)
		if n > 1e-7 {
			for i := range v {
				v[i] /= n
			}
			ortho = append(ortho, v)
		}
	}
	return ortho[nLin:]
}

// containsLoose is Contains with a slightly larger tolerance, needed because
// intersection points of nearly parallel boundaries carry rounding error.
func containsLoose(h HalfSpace, p Point) bool {
	v := h.Eval(p)
	// Scale tolerance with the constraint's magnitude at p.
	tol := 1e-7 * (1 + math.Abs(h.C))
	for i, a := range h.A {
		tol += 1e-7 * math.Abs(a*p[i])
	}
	if h.Op == LE {
		return v <= tol
	}
	return v >= -tol
}

// enumerateRays returns unit generator directions of the recession cone
// {x : h homogeneous, ∀h}. Candidates are drawn from null spaces of every
// subset of up to d−1 constraint normals (boundary-parallel directions,
// both signs), the inward normals, and the signed standard basis; each is
// kept iff every constraint allows it. The result generates the cone, which
// is all the support function needs.
func enumerateRays(hs []HalfSpace, dim int) []Point {
	inCone := func(d Point) bool {
		for _, h := range hs {
			if !h.AllowsDirection(d) {
				return false
			}
		}
		return true
	}
	seen := func(rays []Point, d Point) bool {
		for _, r := range rays {
			if r.Eq(d) {
				return true
			}
		}
		return false
	}
	var rays []Point
	add := func(d Point) {
		if d.IsZero() {
			return
		}
		d = d.Normalize()
		if inCone(d) && !seen(rays, d) {
			rays = append(rays, d)
		}
	}
	// Signed standard basis.
	for i := 0; i < dim; i++ {
		e := make(Point, dim)
		e[i] = 1
		add(e)
		e2 := make(Point, dim)
		e2[i] = -1
		add(e2)
	}
	// Inward normals.
	for _, h := range hs {
		n := make(Point, dim)
		copy(n, h.A)
		if h.Op == LE {
			n = n.Scale(-1)
		}
		add(n)
	}
	// Null spaces of subsets of normals, sizes 1..d−1.
	var rec func(start int, rows [][]float64)
	rec = func(start int, rows [][]float64) {
		if len(rows) >= 1 {
			for _, v := range NullSpaceBasis(rows, dim) {
				add(Point(v))
				add(Point(v).Scale(-1))
			}
		}
		if len(rows) == dim-1 {
			return
		}
		for i := start; i < len(hs); i++ {
			rec(i+1, append(rows, hs[i].A))
		}
	}
	rec(0, nil)
	return rays
}

// feasiblePoint finds a point satisfying all constraints via cyclic
// projection onto violated half-space boundaries (POCS), which converges
// for non-empty intersections of closed half-spaces. It reports failure if
// no feasible point is reached within the iteration budget.
func feasiblePoint(hs []HalfSpace, dim int) (Point, bool) {
	p := make(Point, dim)
	const maxIter = 10000
	for it := 0; it < maxIter; it++ {
		worst, worstViol := -1, Eps
		for i, h := range hs {
			v := h.Eval(p)
			viol := v
			if h.Op == GE {
				viol = -v
			}
			if viol > worstViol {
				worst, worstViol = i, viol
			}
		}
		if worst < 0 {
			return p, true
		}
		h := hs[worst]
		n2 := 0.0
		for _, a := range h.A {
			n2 += a * a
		}
		if n2 <= Eps {
			return nil, false
		}
		// Project onto the boundary, with a small overshoot into the
		// feasible side to avoid stalling on the boundary of several
		// constraints at once.
		v := h.Eval(p)
		step := v / n2 * 1.000001
		for i, a := range h.A {
			p[i] -= step * a
		}
	}
	// Final exact check in case the loop exited right at feasibility.
	for _, h := range hs {
		if !containsLoose(h, p) {
			return nil, false
		}
	}
	return p, true
}

// Dim returns the dimension of the ambient space.
func (p Polyhedron) Dim() int { return p.dim }

// IsEmpty reports whether the polyhedron has no points.
func (p Polyhedron) IsEmpty() bool { return p.empty }

// IsBounded reports whether the polyhedron is bounded (no recession rays).
func (p Polyhedron) IsBounded() bool { return !p.empty && len(p.Rays) == 0 }

// Contains reports whether the point satisfies every defining constraint.
// It requires the H-representation (ErrNoHRep otherwise).
func (p Polyhedron) Contains(pt Point) (bool, error) {
	if p.empty {
		return false, nil
	}
	if p.HS == nil {
		return false, ErrNoHRep
	}
	for _, h := range p.HS {
		if !h.Contains(pt) {
			return false, nil
		}
	}
	return true, nil
}

// Support returns the support function sup_{p∈P} c·p. It returns +Inf when
// the recession cone contains a direction with positive inner product with
// c, and −Inf for the empty polyhedron.
func (p Polyhedron) Support(c Point) float64 {
	if p.empty {
		return math.Inf(-1)
	}
	for _, r := range p.Rays {
		if c.Dot(r) > Eps {
			return math.Inf(1)
		}
	}
	best := math.Inf(-1)
	for _, v := range p.Verts {
		if s := c.Dot(v); s > best {
			best = s
		}
	}
	return best
}

// Top evaluates the paper's TOP^P surface at the slope vector
// b = (b1..b_{d−1}): TOP^P(b) = sup_{p∈P} (p_d − Σ b_i p_i), the largest
// intercept b_d for which the hyperplane x_d = b·x + b_d intersects P.
// It is +Inf where P is unbounded "upward" relative to that slope and −Inf
// for the empty polyhedron.
func (p Polyhedron) Top(b []float64) float64 {
	c := make(Point, p.dim)
	for i, bi := range b {
		c[i] = -bi
	}
	c[p.dim-1] = 1
	return p.Support(c)
}

// Bot evaluates the paper's BOT^P surface at the slope vector b:
// BOT^P(b) = inf_{p∈P} (p_d − Σ b_i p_i). It is −Inf where P is unbounded
// "downward" and +Inf for the empty polyhedron.
func (p Polyhedron) Bot(b []float64) float64 {
	c := make(Point, p.dim)
	for i, bi := range b {
		c[i] = bi
	}
	c[p.dim-1] = -1
	return -p.Support(c)
}

// Area2 returns the area of a 2-D polyhedron: 0 for degenerate, +Inf for
// unbounded.
func (p Polyhedron) Area2() float64 {
	if p.empty {
		return 0
	}
	if len(p.Rays) > 0 {
		return math.Inf(1)
	}
	return PolygonArea2(ConvexHull2(p.Verts))
}

// String summarizes the polyhedron.
func (p Polyhedron) String() string {
	if p.empty {
		return fmt.Sprintf("Polyhedron(dim=%d, empty)", p.dim)
	}
	return fmt.Sprintf("Polyhedron(dim=%d, %d verts, %d rays)", p.dim, len(p.Verts), len(p.Rays))
}

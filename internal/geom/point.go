// Package geom provides the computational-geometry substrate used by the
// dual-representation constraint index: points and half-spaces in E^d,
// convex polyhedra in vertex/ray representation, 2-D and small-d vertex
// enumeration from constraint (H-) representation, convex hulls, the
// geometric dual transform of Section 2.1 of the paper, and exact
// piecewise-linear envelopes for the TOP/BOT surfaces of Section 2.1.
//
// All coordinates are float64. Comparisons use a fixed absolute epsilon
// (Eps); workloads in this repository live in windows on the order of
// [-50, 50]^d, for which an absolute tolerance is appropriate.
package geom

import (
	"fmt"
	"math"
	"strings"
)

// Eps is the absolute tolerance used by geometric predicates.
const Eps = 1e-9

// Point is a point in E^d, represented by its d coordinates.
type Point []float64

// Dim returns the dimension of the point.
func (p Point) Dim() int { return len(p) }

// Clone returns a deep copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Add returns p + q. The points must have equal dimension.
func (p Point) Add(q Point) Point {
	r := make(Point, len(p))
	for i := range p {
		r[i] = p[i] + q[i]
	}
	return r
}

// Sub returns p − q. The points must have equal dimension.
func (p Point) Sub(q Point) Point {
	r := make(Point, len(p))
	for i := range p {
		r[i] = p[i] - q[i]
	}
	return r
}

// Scale returns s·p.
func (p Point) Scale(s float64) Point {
	r := make(Point, len(p))
	for i := range p {
		r[i] = s * p[i]
	}
	return r
}

// Dot returns the inner product of p and q.
func (p Point) Dot(q Point) float64 {
	var s float64
	for i := range p {
		s += p[i] * q[i]
	}
	return s
}

// Norm returns the Euclidean norm of p.
func (p Point) Norm() float64 { return math.Sqrt(p.Dot(p)) }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return p.Sub(q).Norm() }

// Eq reports whether p and q coincide within Eps in every coordinate.
func (p Point) Eq(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if math.Abs(p[i]-q[i]) > Eps {
			return false
		}
	}
	return true
}

// IsZero reports whether every coordinate of p is within Eps of zero.
func (p Point) IsZero() bool {
	for _, c := range p {
		if math.Abs(c) > Eps {
			return false
		}
	}
	return true
}

// Normalize returns p scaled to unit norm. It returns p unchanged if its
// norm is smaller than Eps.
func (p Point) Normalize() Point {
	n := p.Norm()
	if n < Eps {
		return p.Clone()
	}
	return p.Scale(1 / n)
}

// String renders the point as "(x1, x2, …)".
func (p Point) String() string {
	parts := make([]string, len(p))
	for i, c := range p {
		parts[i] = fmt.Sprintf("%g", c)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Pt2 is a convenience constructor for 2-D points, the common case in the
// paper's experiments.
func Pt2(x, y float64) Point { return Point{x, y} }

// Cross2 returns the z component of the cross product (b−a) × (c−a) for
// 2-D points: positive when a→b→c turns counter-clockwise.
func Cross2(a, b, c Point) float64 {
	return (b[0]-a[0])*(c[1]-a[1]) - (b[1]-a[1])*(c[0]-a[0])
}

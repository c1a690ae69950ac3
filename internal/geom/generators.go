package geom

import "math"

// Generators is a polyhedron's V-representation in one contiguous array —
// the rays, then the vertices, dim coordinates each — which refinement
// evaluates TOP^P/BOT^P on without allocating, in Polyhedron.Support's own
// arithmetic: the same bits for every input (DESIGN.md §16). The zero value
// is the empty polyhedron.
type Generators struct {
	gen   []float64
	nrays int // floats of gen that belong to rays
	dim   int
}

// Pack lays p's generators out contiguously and re-points p.Verts[i] and
// p.Rays[i] at that array (capped, so an append to one cannot reach its
// neighbour): one allocation in place of one per generator.
func (p *Polyhedron) Pack() Generators {
	d := p.dim
	g := Generators{gen: make([]float64, 0, (len(p.Verts)+len(p.Rays))*d), nrays: len(p.Rays) * d, dim: d}
	repoint := func(pts []Point) []Point {
		out := make([]Point, len(pts))
		for i, v := range pts {
			off := len(g.gen)
			g.gen = append(g.gen, v...)
			out[i] = g.gen[off : off+d : off+d]
		}
		return out
	}
	p.Rays, p.Verts = repoint(p.Rays), repoint(p.Verts)
	return g
}

// IsEmpty reports whether there is no generator: the empty polyhedron.
func (g *Generators) IsEmpty() bool { return len(g.gen) == 0 }

// support is Polyhedron.Support for c = (sign·head…, last), term for term:
// each inner product starts from +0 and adds c_i·x_i in coordinate order
// (sign = ±1 keeps sign·head_i exact), a ray with c·r > Eps gives +Inf,
// otherwise the strict maximum over the vertices in their order.
func (g *Generators) support(head []float64, sign, last float64) float64 {
	d, gen := len(head)+1, g.gen
	best := math.Inf(-1)
	if d != g.dim {
		return best // the zero value; callers check dimensions
	}
	if d == 2 { // the loop below, unrolled: 10 % of a warm 2-D query
		c0 := sign * head[0]
		for off := 0; off+1 < len(gen); off += 2 {
			var s float64
			s += c0 * gen[off]
			s += last * gen[off+1]
			if off < g.nrays {
				if s > Eps {
					return math.Inf(1)
				}
			} else if s > best {
				best = s
			}
		}
		return best
	}
	for off := 0; off+d <= len(gen); off += d {
		x := gen[off : off+d]
		var s float64
		for i, h := range head {
			s += sign * h * x[i]
		}
		s += last * x[d-1]
		if off < g.nrays {
			if s > Eps {
				return math.Inf(1)
			}
		} else if s > best {
			best = s
		}
	}
	return best
}

// Support returns sup_{p∈P} c·p for a direction c of length dim.
func (g *Generators) Support(c []float64) float64 {
	return g.support(c[:len(c)-1], 1, c[len(c)-1])
}

// Top and Bot evaluate TOP^P and BOT^P at the slope vector b (length dim−1).
func (g *Generators) Top(b []float64) float64 { return g.support(b, -1, 1) }
func (g *Generators) Bot(b []float64) float64 { return -g.support(b, 1, -1) }

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

// Tangents returns the x of the vertex whose dual line attains TOP^P and
// BOT^P of 2-D generators at the slope b — the first, in Top's and Bot's
// arithmetic bit for bit, so its line's value at b is the kernel's there —
// and NaN where a ray fires or there is no vertex. That line supports the
// surface: TOP^P ≥ it and BOT^P ≤ it at every slope (DESIGN.md §17).
func (g *Generators) Tangents(b float64) (top, bot float64) {
	at := func(p sample) float64 {
		if p.v < 0 {
			return math.NaN()
		}
		return g.gen[p.v]
	}
	return at(g.sample(-1, 1, b)), at(g.sample(1, -1, b))
}

// HalfStrips holds a surface's extrema over the two halves [lo, a] and
// [a, hi] of a strip around the slope a: the half toward the previous slope
// and the half toward the next.
type HalfStrips struct {
	MaxPrev, MaxNext, MinPrev, MinNext float64
}

// StripExtrema returns the extrema of TOP^P and BOT^P of 2-D generators over
// the half strips [lo, a] and [a, hi] (lo ≤ a ≤ hi), from the generators
// alone and without allocating. TOP(b) = max_v (v_y − b·v_x) is convex, so
// its max over a half strip is the larger of its values at the two ends —
// Top's, bit for bit — and its min lies at an end or where the maximising
// vertex changes inside; BOT mirrors it. A ray makes a surface infinite
// exactly where the kernel's ray test fires, so a min is taken over the part
// of the half strip where the kernel is finite, +Inf (TOP) when it is
// nowhere (DESIGN.md §19).
func (g *Generators) StripExtrema(lo, a, hi float64) (top, bot HalfStrips) {
	top = g.halfStrips(-1, 1, lo, a, hi) // TOP(b) = support(b, −1, 1)
	w := g.halfStrips(1, -1, lo, a, hi)  // BOT(b) = −support(b, 1, −1)
	bot = HalfStrips{MaxPrev: -w.MinPrev, MaxNext: -w.MinNext, MinPrev: -w.MaxPrev, MinNext: -w.MaxNext}
	return top, bot
}

// sample is w(b) = support(b, sign, last) in E² at one slope b, in support's
// arithmetic term for term, with the offset in gen of the vertex attaining
// it — the first, as support keeps the strict maximum — or −1 when a ray
// fires (w = +Inf) or there is no vertex (w = −Inf).
type sample struct {
	b, w float64
	v    int
}

func (g *Generators) sample(sign, last, b float64) sample {
	p := sample{b: b, w: math.Inf(-1), v: -1}
	if g.dim != 2 {
		return p
	}
	for off := 0; off < g.nrays; off += 2 {
		if rayFires(sign, last, g.gen[off], g.gen[off+1], b) {
			p.w = math.Inf(1)
			return p
		}
	}
	c0 := sign * b
	for off := g.nrays; off < len(g.gen); off += 2 {
		var s float64
		s += c0 * g.gen[off]
		s += last * g.gen[off+1]
		if s > p.w {
			p.w, p.v = s, off
		}
	}
	return p
}

// rayFires is support's ray test at slope b.
func rayFires(sign, last, rx, ry, b float64) bool {
	c0 := sign * b
	var s float64
	s += c0 * rx
	s += last * ry
	return s > Eps
}

// halfStrips returns the extrema of the convex w(b) = support(b, sign, last)
// over [lo, a] and [a, hi]: the max at an end, the min by minOn.
func (g *Generators) halfStrips(sign, last, lo, a, hi float64) HalfStrips {
	l, m, h := g.sample(sign, last, lo), g.sample(sign, last, a), g.sample(sign, last, hi)
	return HalfStrips{
		MaxPrev: max(l.w, m.w),
		MaxNext: max(m.w, h.w),
		MinPrev: g.minOn(sign, last, l, m),
		MinNext: g.minOn(sign, last, m, h),
	}
}

// minOn returns the minimum of the convex w over the slopes of [l.b, h.b] at
// which no ray fires, +Inf if there is none. A ray's value is monotone in b,
// so that set is an interval: a ray firing at one end only moves that end to
// the last slope where it does not fire. Between the ends w is the max of the
// vertices' lines sign·b·v_x + last·v_y, and its min is where the slope
// sign·v_x of the maximising vertex changes sign: bisect at the crossing of
// the two ends' maximisers until one of them maximises there too. Each step
// finds a vertex whose slope lies strictly between theirs, so there are at
// most as many steps as vertices.
func (g *Generators) minOn(sign, last float64, l, h sample) float64 {
	if math.IsInf(l.w, 1) || math.IsInf(h.w, 1) {
		lo, hi := l.b, h.b
		for off := 0; off < g.nrays; off += 2 {
			rx, ry := g.gen[off], g.gen[off+1]
			switch fl, fh := rayFires(sign, last, rx, ry, l.b), rayFires(sign, last, rx, ry, h.b); {
			case fl && fh:
				return math.Inf(1)
			case fl:
				lo = max(lo, rayEnd(sign, last, rx, ry, l.b, h.b))
			case fh:
				hi = min(hi, rayEnd(sign, last, rx, ry, h.b, l.b))
			}
		}
		if lo > hi {
			return math.Inf(1)
		}
		l, h = g.sample(sign, last, lo), g.sample(sign, last, hi)
	}
	best := min(l.w, h.w)
	for n := len(g.gen) - g.nrays; l.v != h.v && n > 0; n -= 2 {
		xl, xh := sign*g.gen[l.v], sign*g.gen[h.v]
		if xl >= 0 || xh <= 0 {
			break // w is monotone between the ends
		}
		b := last * (g.gen[h.v+1] - g.gen[l.v+1]) / (xl - xh)
		if !(b > l.b && b < h.b) {
			break // the crossing rounded onto an end
		}
		c := g.sample(sign, last, b)
		best = min(best, c.w)
		if c.v == l.v || c.v == h.v {
			break // w is the end's line on either side of c
		}
		switch xc := sign * g.gen[c.v]; {
		case xc > 0: // w rises past c
			h = c
		case xc < 0:
			l = c
		default:
			return best // a flat piece: its value is the min
		}
	}
	return best
}

// rayEnd returns the slope between out and in nearest out at which the ray
// does not fire, for a ray that fires at out and not at in: the exact
// crossing of its value with Eps, moved by ulps onto the kernel's verdict.
func rayEnd(sign, last, rx, ry, out, in float64) float64 {
	c := (Eps - last*ry) / (sign * rx)
	if !(min(in, out) <= c) { // NaN too
		c = min(in, out)
	}
	c = min(c, max(in, out))
	for rayFires(sign, last, rx, ry, c) {
		c = math.Nextafter(c, in)
	}
	for n := math.Nextafter(c, out); !rayFires(sign, last, rx, ry, n); n = math.Nextafter(c, out) {
		c = n
	}
	return c
}

package geom

import (
	"math"
	"sort"
)

// Line2 is the line value(a) = M·a + B in the (slope, intercept) parameter
// plane — the graph of F_{D(v)} as a function of the query slope a for a
// fixed primal vertex v = (vx, vy): M = −vx, B = vy.
type Line2 struct {
	M, B float64
}

// Eval returns M·a + B.
func (l Line2) Eval(a float64) float64 { return l.M*a + l.B }

// Envelope is the exact piecewise-linear TOP^P or BOT^P surface of a 2-D
// polyhedron as a function of the query slope a (Section 2.1 of the paper).
// An upper envelope (TOP) is convex; a lower envelope (BOT) is concave.
// No index evaluates one — handicap routes come from
// Generators.StripExtrema — it is the reference tests and bench/ compare the
// kernel with.
//
// Unbounded polyhedra restrict the finite domain to [DomLo, DomHi]; outside
// it the surface is +Inf (TOP) or −Inf (BOT). An empty finite domain means
// the surface is infinite everywhere.
type Envelope struct {
	Upper          bool      // true: TOP (max of lines), false: BOT (min of lines)
	DomLo, DomHi   float64   // finite domain; DomLo > DomHi ⇒ always infinite
	hull           []Line2   // envelope pieces ordered by increasing M
	bps            []float64 // breakpoints between consecutive hull pieces
	alwaysInfinite bool
	negInf         bool // empty polyhedron: Eval is −Inf (TOP) / +Inf (BOT)
}

// TopEnvelope2 returns the TOP^P surface of a 2-D polyhedron.
func TopEnvelope2(p Polyhedron) Envelope { return envelope2(p, true) }

// BotEnvelope2 returns the BOT^P surface of a 2-D polyhedron.
func BotEnvelope2(p Polyhedron) Envelope { return envelope2(p, false) }

func envelope2(p Polyhedron, upper bool) Envelope {
	e := Envelope{Upper: upper, DomLo: math.Inf(-1), DomHi: math.Inf(1)}
	if p.IsEmpty() {
		e.negInf = true
		return e
	}
	// Rays restrict the finite domain. For TOP (sup of p_y − a·p_x) a ray r
	// makes the surface +Inf where r_y − a·r_x > 0; for BOT, −Inf where
	// r_y − a·r_x < 0.
	for _, r := range p.Rays {
		ry, rx := r[1], r[0]
		if !upper {
			ry, rx = -ry, -rx // BOT(a) = −sup of (−p_y) + a·p_x; reuse the TOP rule on mirrored rays
		}
		switch {
		case rx > Eps:
			// ry − a·rx ≤ 0 ⇔ a ≥ ry/rx.
			e.DomLo = math.Max(e.DomLo, ry/rx)
		case rx < -Eps:
			e.DomHi = math.Min(e.DomHi, ry/rx)
		default:
			if ry > Eps {
				e.alwaysInfinite = true
				return e
			}
		}
	}
	if e.DomLo > e.DomHi+Eps {
		e.alwaysInfinite = true
		return e
	}
	lines := make([]Line2, 0, len(p.Verts))
	for _, v := range p.Verts {
		l := Line2{M: -v[0], B: v[1]}
		if !upper {
			l = Line2{M: v[0], B: -v[1]} // negate so we can build an upper hull and negate back
		}
		lines = append(lines, l)
	}
	e.hull, e.bps = upperHullLines(lines)
	if !upper {
		for i := range e.hull {
			e.hull[i] = Line2{M: -e.hull[i].M, B: -e.hull[i].B}
		}
	}
	return e
}

// upperHullLines computes the upper envelope of the given lines: the subset
// forming max_l l(a), ordered by increasing slope, plus the breakpoints
// where consecutive pieces cross.
func upperHullLines(lines []Line2) ([]Line2, []float64) {
	if len(lines) == 0 {
		return nil, nil
	}
	ls := append([]Line2(nil), lines...)
	sort.Slice(ls, func(i, j int) bool {
		if ls[i].M != ls[j].M { // sort needs a strict weak order over the raw bits
			return ls[i].M < ls[j].M
		}
		return ls[i].B < ls[j].B
	})
	// Drop dominated near-equal-slope lines (keep max B). Slopes closer than
	// Eps would put the crossing at ΔB/ΔM — a breakpoint of magnitude ≳1e9
	// (or ±Inf/NaN when ΔM underflows) that destabilizes the hull scan and
	// the binary search over bps, while the dropped line differs from the
	// kept one by at most Eps·|a| anywhere in the domain.
	dedup := ls[:0]
	for _, l := range ls {
		if len(dedup) > 0 && l.M-dedup[len(dedup)-1].M <= Eps {
			if l.B > dedup[len(dedup)-1].B {
				dedup[len(dedup)-1] = l
			}
			continue
		}
		dedup = append(dedup, l)
	}
	ls = dedup
	var hull []Line2
	crossX := func(a, b Line2) float64 { return (b.B - a.B) / (a.M - b.M) }
	for _, l := range ls {
		for len(hull) >= 1 {
			top := hull[len(hull)-1]
			if len(hull) == 1 {
				// l dominates top everywhere iff same slope handled above;
				// otherwise keep both.
				break
			}
			// Remove top if l overtakes it before top overtakes hull[-2].
			if crossX(l, top) <= crossX(top, hull[len(hull)-2])+0 {
				hull = hull[:len(hull)-1]
				continue
			}
			break
		}
		hull = append(hull, l)
	}
	bps := make([]float64, 0, len(hull)-1)
	for i := 0; i+1 < len(hull); i++ {
		bps = append(bps, crossX(hull[i], hull[i+1]))
	}
	return hull, bps
}

// infValue returns the envelope's infinite value: +Inf for TOP, −Inf for BOT.
func (e Envelope) infValue() float64 {
	if e.Upper {
		return math.Inf(1)
	}
	return math.Inf(-1)
}

// Eval returns the surface value at slope a.
func (e Envelope) Eval(a float64) float64 {
	if e.negInf {
		return -e.infValue()
	}
	if e.alwaysInfinite || a < e.DomLo-Eps || a > e.DomHi+Eps {
		return e.infValue()
	}
	return e.evalFinite(a)
}

func (e Envelope) evalFinite(a float64) float64 {
	i := sort.SearchFloat64s(e.bps, a)
	return e.hull[i].Eval(a)
}

// MaxOn returns the exact maximum of the surface over the closed slope
// interval [lo, hi].
func (e Envelope) MaxOn(lo, hi float64) float64 {
	if e.negInf {
		return -e.infValue()
	}
	if e.alwaysInfinite {
		return e.infValue()
	}
	if e.Upper {
		// Interval escapes the finite domain ⇒ +Inf.
		if lo < e.DomLo-Eps || hi > e.DomHi+Eps {
			return math.Inf(1)
		}
		// Convex: max at the endpoints.
		return math.Max(e.evalFinite(lo), e.evalFinite(hi))
	}
	// Concave (BOT): clamp to the finite domain (outside it BOT = −Inf, which
	// never wins a max), then check endpoints and interior breakpoints.
	cl, ch := math.Max(lo, e.DomLo), math.Min(hi, e.DomHi)
	if cl > ch {
		return math.Inf(-1)
	}
	best := math.Max(e.evalFinite(cl), e.evalFinite(ch))
	for _, b := range e.bps {
		if b > cl && b < ch {
			best = math.Max(best, e.evalFinite(b))
		}
	}
	return best
}

// MinOn returns the exact minimum of the surface over the closed slope
// interval [lo, hi].
func (e Envelope) MinOn(lo, hi float64) float64 {
	if e.negInf {
		return -e.infValue()
	}
	if e.alwaysInfinite {
		return e.infValue()
	}
	if !e.Upper {
		// Concave: interval escaping the finite domain ⇒ −Inf.
		if lo < e.DomLo-Eps || hi > e.DomHi+Eps {
			return math.Inf(-1)
		}
		return math.Min(e.evalFinite(lo), e.evalFinite(hi))
	}
	// Convex (TOP): clamp to the finite domain, then endpoints + breakpoints.
	cl, ch := math.Max(lo, e.DomLo), math.Min(hi, e.DomHi)
	if cl > ch {
		return math.Inf(1)
	}
	best := math.Min(e.evalFinite(cl), e.evalFinite(ch))
	for _, b := range e.bps {
		if b > cl && b < ch {
			best = math.Min(best, e.evalFinite(b))
		}
	}
	return best
}

// MaxCoord and MaxMergedLines are the range EnvelopeSlack is a bound over: no
// generator coordinate beyond MaxCoord in magnitude, no more than
// MaxMergedLines vertices whose x — their dual lines' slopes — chain within
// Eps, which is as many lines as upperHullLines can merge into one piece.
// MaxCoord is also the range an index accepts (T2's margin is a bound over
// it); MaxMergedLines is the envelope's alone, since no index evaluates one.
const (
	MaxCoord       = 1e6
	MaxMergedLines = 30
)

// EnvelopeSlack is a bound on |Envelope.Eval(a) − Polyhedron.Top/Bot at a|
// wherever Eval is finite (the support value then is too), within MaxCoord
// and MaxMergedLines: the n lines upperHullLines merged cost ≤ n·Eps·|a|,
// rounding at breakpoints < 2·Eps·(1+|a|).
func EnvelopeSlack(a float64) float64 { return 32 * Eps * (1 + math.Abs(a)) }

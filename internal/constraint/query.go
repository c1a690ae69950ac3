package constraint

import (
	"fmt"
	"math"
	"sort"

	"dualcdb/internal/geom"
)

// QueryKind distinguishes the two selection types of the paper.
type QueryKind int

const (
	// EXIST retrieves tuples whose extension intersects the query extension.
	EXIST QueryKind = iota
	// ALL retrieves tuples whose extension is contained in the query extension.
	ALL
)

// String renders the kind.
func (k QueryKind) String() string {
	if k == ALL {
		return "ALL"
	}
	return "EXIST"
}

// Query is a half-plane selection Q(x_d θ b1·x1 + … + b_{d−1}·x_{d−1} + b_d)
// with Q ∈ {ALL, EXIST} — the query class the paper's index supports.
type Query struct {
	Kind      QueryKind
	Slope     []float64 // b1..b_{d−1}
	Intercept float64   // b_d
	Op        geom.Op   // θ
}

// NewQuery builds a query, copying the slope slice.
func NewQuery(kind QueryKind, slope []float64, intercept float64, op geom.Op) Query {
	return Query{Kind: kind, Slope: append([]float64(nil), slope...), Intercept: intercept, Op: op}
}

// Query2 builds the 2-D query Q(y θ a·x + b).
func Query2(kind QueryKind, a, b float64, op geom.Op) Query {
	return Query{Kind: kind, Slope: []float64{a}, Intercept: b, Op: op}
}

// Dim returns the dimension of the query's variable space.
func (q Query) Dim() int { return len(q.Slope) + 1 }

// HalfSpace returns the query half-plane as a geometric half-space.
func (q Query) HalfSpace() geom.HalfSpace {
	return geom.FromSlopeForm(q.Slope, q.Intercept, q.Op)
}

// String renders the query, e.g. "EXIST(y >= 2x + 1)".
func (q Query) String() string {
	if q.Dim() == 2 {
		return fmt.Sprintf("%s(y %s %gx + %g)", q.Kind, q.Op, q.Slope[0], q.Intercept)
	}
	return fmt.Sprintf("%s(x%d %s %v·x + %g)", q.Kind, q.Dim(), q.Op, q.Slope, q.Intercept)
}

// Matches reports whether tuple t satisfies the selection, implementing
// Proposition 2.2 exactly:
//
//	ALL(q(≥), t)   ⇔ b_d ≤ BOT^P(slope)
//	ALL(q(≤), t)   ⇔ b_d ≥ TOP^P(slope)
//	EXIST(q(≥), t) ⇔ b_d ≤ TOP^P(slope)
//	EXIST(q(≤), t) ⇔ b_d ≥ BOT^P(slope)
//
// The tolerance sits on the intercept: b_d ∓ Eps is one float per query, the
// very bound an index sweep filters keys by, so over keys that are surface
// values at this slope key order and predicate agree to the bit.
//
// Empty tuples match nothing (their TOP is −Inf and BOT is +Inf, which
// makes the ALL comparisons vacuously true; we exclude them explicitly —
// an unsatisfiable tuple denotes no points and is not "contained" in any
// useful sense for retrieval).
func (q Query) Matches(t *Tuple) (bool, error) {
	g, err := t.generators(q.Dim())
	if err != nil || g.IsEmpty() {
		return false, err
	}
	switch {
	case q.Kind == ALL && q.Op == geom.GE:
		return q.Intercept-geom.Eps <= g.Bot(q.Slope), nil
	case q.Kind == ALL && q.Op == geom.LE:
		return q.Intercept+geom.Eps >= g.Top(q.Slope), nil
	case q.Kind == EXIST && q.Op == geom.GE:
		return q.Intercept-geom.Eps <= g.Top(q.Slope), nil
	default: // EXIST, LE
		return q.Intercept+geom.Eps >= g.Bot(q.Slope), nil
	}
}

// Eval runs the selection over a whole relation by exhaustive scan,
// returning matching tuple ids in ascending order. This is the ground
// truth the indexes are validated against, and the "no index" baseline.
func (q Query) Eval(r *Relation) ([]TupleID, error) {
	var out []TupleID
	var scanErr error
	r.Scan(func(t *Tuple) bool {
		ok, err := q.Matches(t)
		if err != nil {
			scanErr = err
			return false
		}
		if ok {
			out = append(out, t.ID())
		}
		return true
	})
	if scanErr != nil {
		return nil, scanErr
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// TupleALL reports whether ext(t) ⊆ ext(q) for two generalized tuples:
// containment holds iff every constraint of q contains ext(t), which the
// support function decides exactly. Empty t is reported as not contained
// (consistent with Query.Matches).
func TupleALL(q, t *Tuple) (bool, error) {
	if q.Dim() != t.Dim() {
		return false, fmt.Errorf("constraint: dimension mismatch %d vs %d", q.Dim(), t.Dim())
	}
	if !t.IsSatisfiable() {
		return false, nil
	}
	dir := make([]float64, t.dim)
	for i := range q.NumConstraints() {
		h := q.Constraint(i)
		// ext(t) ⊆ {x: a·x + c ≤ 0} ⇔ sup_{x∈t}(a·x) ≤ −c, and a·x + c ≥ 0
		// is that constraint of (−a, −c).
		sign := 1.0
		if h.Op == geom.GE {
			sign = -1
		}
		for i, a := range h.A {
			dir[i] = sign * a
		}
		if sup, _ := t.Support(dir); sup > -sign*h.C+geom.Eps {
			return false, nil
		}
	}
	return true, nil
}

// TupleEXIST reports whether ext(t) ∩ ext(q) is non-empty, by testing the
// satisfiability of the combined constraint conjunction. Two fast paths
// short-circuit the vertex enumeration: disjoint bounding boxes prove
// emptiness, and a vertex of one extension inside the other proves
// non-emptiness. Both read the tuples' generators and constraints in place.
// A pair they leave undecided in which either tuple has no H-representation
// (HasHRep) has no conjunction to test: geom.ErrNoHRep.
func TupleEXIST(q, t *Tuple) (bool, error) {
	if q.Dim() != t.Dim() {
		return false, fmt.Errorf("constraint: dimension mismatch %d vs %d", q.Dim(), t.Dim())
	}
	qg, tg := q.Generators(), t.Generators()
	if qg.IsEmpty() || tg.IsEmpty() {
		return false, nil
	}
	for i := range t.Dim() {
		qlo, qhi := qg.Extent(i)
		tlo, thi := tg.Extent(i)
		if qhi < tlo-geom.Eps || thi < qlo-geom.Eps {
			return false, nil
		}
	}
	if q.holdsVertexOf(tg) || t.holdsVertexOf(qg) {
		return true, nil
	}
	if q.noHRep || t.noHRep {
		return false, geom.ErrNoHRep
	}
	combined := make([]geom.HalfSpace, 0, q.NumConstraints()+t.NumConstraints())
	for _, u := range [2]*Tuple{q, t} {
		for i := range u.NumConstraints() {
			combined = append(combined, u.Constraint(i))
		}
	}
	g, err := geom.PackHalfSpaces(combined, t.Dim())
	if err != nil {
		return false, err
	}
	return !g.IsEmpty(), nil
}

// holdsVertexOf reports whether some vertex of g satisfies every constraint
// of t. A tuple without constraints (no H-representation, or none written)
// tests no point and reports false, as Polyhedron.Contains refuses one.
func (t *Tuple) holdsVertexOf(g *geom.Generators) bool {
	if t.noHRep || len(t.ops) == 0 {
		return false
	}
	d := g.Dim()
next:
	for v := g.Vertices(); len(v) > 0; v = v[d:] {
		for i := range t.ops {
			if !t.Constraint(i).Contains(v[:d]) {
				continue next
			}
		}
		return true
	}
	return false
}

// Selectivity returns |result| / |relation| for the query, used by the
// workload generator to calibrate query intercepts.
func (q Query) Selectivity(r *Relation) (float64, error) {
	if r.Len() == 0 {
		return 0, nil
	}
	ids, err := q.Eval(r)
	if err != nil {
		return 0, err
	}
	return float64(len(ids)) / float64(r.Len()), nil
}

// SurfaceValue returns the tuple surface value the query compares against:
// TOP^P(slope) for EXIST(≥)/ALL(≤) queries and BOT^P(slope) for the other
// two — i.e. the key under which the tuple appears in the B⁺-tree that
// serves this query (Section 3 of the paper).
func (q Query) SurfaceValue(t *Tuple) (float64, error) {
	g, err := t.generators(q.Dim())
	switch {
	case err != nil:
		return 0, err
	case g.IsEmpty():
		return math.NaN(), nil
	case q.UsesTop():
		return g.Top(q.Slope), nil
	}
	return g.Bot(q.Slope), nil
}

// UsesTop reports whether the query is answered from TOP^P values (the
// B^up tree): EXIST(≥) and ALL(≤).
func (q Query) UsesTop() bool {
	return (q.Kind == EXIST) == (q.Op == geom.GE)
}

// SweepsUp reports whether the answer set consists of values following b_d
// in increasing key order (an upward leaf sweep): ALL(≥) and EXIST(≥).
func (q Query) SweepsUp() bool {
	return q.Op == geom.GE
}

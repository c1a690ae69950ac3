package constraint

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"dualcdb/internal/geom"
)

func unitSquare(t *testing.T, x0, y0, side float64) *Tuple {
	t.Helper()
	cons := []geom.HalfSpace{
		geom.HalfPlane2(1, 0, -x0, geom.GE),
		geom.HalfPlane2(1, 0, -(x0 + side), geom.LE),
		geom.HalfPlane2(0, 1, -y0, geom.GE),
		geom.HalfPlane2(0, 1, -(y0 + side), geom.LE),
	}
	tp, err := NewTuple(2, cons)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestQueryMatchesSquare(t *testing.T) {
	sq := unitSquare(t, 0, 0, 1) // [0,1]²
	cases := []struct {
		q    Query
		want bool
	}{
		{Query2(EXIST, 0, 0.5, geom.GE), true},   // y ≥ 0.5 crosses the square
		{Query2(EXIST, 0, 2, geom.GE), false},    // y ≥ 2 misses it
		{Query2(EXIST, 0, -1, geom.LE), false},   // y ≤ −1 misses it
		{Query2(ALL, 0, -0.5, geom.GE), true},    // square ⊆ {y ≥ −0.5}
		{Query2(ALL, 0, 0.5, geom.GE), false},    // square ⊄ {y ≥ 0.5}
		{Query2(ALL, 0, 1.5, geom.LE), true},     // square ⊆ {y ≤ 1.5}
		{Query2(ALL, 1, 0.001, geom.LE), false},  // y ≤ x + 0.001 cuts the square
		{Query2(EXIST, 1, 0.5, geom.GE), true},   // y ≥ x + 0.5 crosses it
		{Query2(ALL, -1, 2.0001, geom.LE), true}, // y ≤ −x + 2.0001 contains it
	}
	for _, c := range cases {
		got, err := c.q.Matches(sq)
		if err != nil {
			t.Fatalf("%v: %v", c.q, err)
		}
		if got != c.want {
			t.Errorf("%v on unit square = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQueryMatchesAgainstSampling(t *testing.T) {
	// Cross-validate Proposition 2.2 against brute-force point sampling.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		x0, y0 := rng.Float64()*20-10, rng.Float64()*20-10
		side := rng.Float64()*4 + 0.2
		sq := unitSquare(t, x0, y0, side)
		a := rng.NormFloat64() * 2
		b := rng.NormFloat64() * 10
		op := geom.GE
		if rng.Intn(2) == 0 {
			op = geom.LE
		}
		h := geom.FromSlopeForm([]float64{a}, b, op)
		// Sample a grid of points of the square.
		allIn, anyIn := true, false
		for i := 0; i <= 8; i++ {
			for j := 0; j <= 8; j++ {
				p := geom.Pt2(x0+side*float64(i)/8, y0+side*float64(j)/8)
				if h.ContainsStrict(p) {
					anyIn = true
				} else if !h.Contains(p) {
					allIn = false
				}
			}
		}
		gotAll, err := Query{Kind: ALL, Slope: []float64{a}, Intercept: b, Op: op}.Matches(sq)
		if err != nil {
			t.Fatal(err)
		}
		gotExist, err := Query{Kind: EXIST, Slope: []float64{a}, Intercept: b, Op: op}.Matches(sq)
		if err != nil {
			t.Fatal(err)
		}
		// Sampling gives one-sided evidence (corners are in the grid, so for
		// a convex object vs a half-plane the grid verdicts are exact up to
		// boundary ties, which we skip).
		if allIn && !gotAll {
			t.Fatalf("grid fully inside but ALL=false: a=%v b=%v op=%v sq=(%v,%v,%v)", a, b, op, x0, y0, side)
		}
		if anyIn && !gotExist {
			t.Fatalf("grid point strictly inside but EXIST=false: a=%v b=%v op=%v", a, b, op)
		}
		if !gotAll && gotExist {
			// fine: intersects but not contained
		}
		if gotAll && !gotExist {
			t.Fatalf("ALL implies EXIST for non-empty tuples: a=%v b=%v op=%v", a, b, op)
		}
	}
}

func TestQueryEvalGroundTruth(t *testing.T) {
	r := NewRelation(2)
	low, _ := r.Insert(unitSquare(t, 0, 0, 1))  // y ∈ [0,1]
	mid, _ := r.Insert(unitSquare(t, 0, 2, 1))  // y ∈ [2,3]
	high, _ := r.Insert(unitSquare(t, 0, 4, 1)) // y ∈ [4,5]
	q := Query2(ALL, 0, 1.5, geom.GE)           // y ≥ 1.5 contains mid and high
	ids, err := q.Eval(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != mid || ids[1] != high {
		t.Fatalf("ALL(y≥1.5) = %v, want [%d %d]", ids, mid, high)
	}
	q2 := Query2(EXIST, 0, 0.5, geom.LE) // y ≤ 0.5 intersects only low
	ids, err = q2.Eval(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != low {
		t.Fatalf("EXIST(y≤0.5) = %v, want [%d]", ids, low)
	}
}

func TestQueryUnsatisfiableTupleNeverMatches(t *testing.T) {
	tp := mustTuple(t, "x >= 1 && x <= 0")
	for _, q := range []Query{
		Query2(ALL, 0, 0, geom.GE), Query2(ALL, 0, 0, geom.LE),
		Query2(EXIST, 0, 0, geom.GE), Query2(EXIST, 0, 0, geom.LE),
	} {
		ok, err := q.Matches(tp)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Errorf("%v matched an unsatisfiable tuple", q)
		}
	}
}

func TestQueryUnboundedTuple(t *testing.T) {
	// Upper half-plane tuple y ≥ 3.
	tp := mustTuple(t, "y >= 3")
	// EXIST(y ≥ anything) holds: tuple reaches arbitrarily high.
	if ok, _ := Query2(EXIST, 2, 100, geom.GE).Matches(tp); !ok {
		t.Error("unbounded tuple must intersect any upward half-plane")
	}
	// ALL(y ≥ 3) holds (equal sets), ALL(y ≥ 3.5) does not.
	if ok, _ := Query2(ALL, 0, 3, geom.GE).Matches(tp); !ok {
		t.Error("ALL(y≥3) should contain the tuple y≥3")
	}
	if ok, _ := Query2(ALL, 0, 3.5, geom.GE).Matches(tp); ok {
		t.Error("ALL(y≥3.5) should not contain the tuple y≥3")
	}
	// ALL(y ≤ c) never holds for an upward-unbounded tuple.
	if ok, _ := Query2(ALL, 0, 1e9, geom.LE).Matches(tp); ok {
		t.Error("upward-unbounded tuple cannot be below any line")
	}
}

func TestTupleALLAndEXIST(t *testing.T) {
	inner := unitSquare(t, 1, 1, 1)
	outer := unitSquare(t, 0, 0, 3)
	apart := unitSquare(t, 10, 10, 1)

	if ok, err := TupleALL(outer, inner); err != nil || !ok {
		t.Fatalf("inner ⊆ outer: %v %v", ok, err)
	}
	if ok, _ := TupleALL(inner, outer); ok {
		t.Fatal("outer ⊄ inner")
	}
	if ok, err := TupleEXIST(outer, inner); err != nil || !ok {
		t.Fatalf("inner ∩ outer ≠ ∅: %v %v", ok, err)
	}
	if ok, _ := TupleEXIST(apart, inner); ok {
		t.Fatal("disjoint squares must not intersect")
	}
	// Touching squares intersect (closed sets).
	touch := unitSquare(t, 2, 1, 1) // shares the edge x=2 with inner
	if ok, _ := TupleEXIST(touch, inner); !ok {
		t.Fatal("edge-sharing squares intersect")
	}
}

// TestTupleEXISTMatchesSatisfiability holds TupleEXIST's fast paths to the
// satisfiability of the combined constraints on random bounded and unbounded
// tuples, and checks that a pair its fast paths decide costs no allocation.
func TestTupleEXISTMatchesSatisfiability(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tuples := make([]*Tuple, 40)
	for i := range tuples {
		cons := make([]geom.HalfSpace, 1+rng.Intn(5))
		for j := range cons {
			op := geom.LE
			if rng.Intn(2) == 0 {
				op = geom.GE
			}
			cons[j] = geom.HalfPlane2(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()*3, op)
		}
		tp, err := NewTuple(2, cons)
		if err != nil {
			t.Fatal(err)
		}
		tuples[i] = tp
	}
	var fast [2]*Tuple
	for _, q := range tuples {
		for _, tp := range tuples {
			got, err := TupleEXIST(q, tp)
			if err != nil {
				t.Fatal(err)
			}
			p, err := geom.FromHalfSpaces(append(q.Constraints(), tp.Constraints()...), 2)
			if err != nil {
				t.Fatal(err)
			}
			if want := !p.IsEmpty(); got != want {
				t.Fatalf("TupleEXIST(%v, %v) = %v, combined constraints satisfiable: %v", q, tp, got, want)
			}
			if got && (q.holdsVertexOf(tp.Generators()) || tp.holdsVertexOf(q.Generators())) {
				fast = [2]*Tuple{q, tp}
			}
		}
	}
	if fast[0] == nil {
		t.Fatal("no pair was decided by a vertex")
	}
	if n := testing.AllocsPerRun(100, func() { TupleEXIST(fast[0], fast[1]) }); n != 0 {
		t.Errorf("TupleEXIST decided by a vertex allocates %v times, want 0", n)
	}
	// Two crossing bars: the boxes meet, neither holds a vertex of the other,
	// so only the combined constraints decide. Their list and the one
	// generator array geom.PackHalfSpaces builds are the whole cost.
	wide, err := ParseTuple("x >= -3 && x <= 3 && y >= -1 && y <= 1", 2)
	if err != nil {
		t.Fatal(err)
	}
	tall, err := ParseTuple("x >= -1 && x <= 1 && y >= -3 && y <= 3", 2)
	if err != nil {
		t.Fatal(err)
	}
	if wide.holdsVertexOf(tall.Generators()) || tall.holdsVertexOf(wide.Generators()) {
		t.Fatal("a vertex decides the crossing bars")
	}
	if ok, err := TupleEXIST(wide, tall); !ok || err != nil {
		t.Fatalf("TupleEXIST(crossing bars) = %v, %v; want true", ok, err)
	}
	if n := testing.AllocsPerRun(100, func() { TupleEXIST(wide, tall) }); n != 2 {
		t.Errorf("TupleEXIST decided by the combined constraints allocates %v times, want 2", n)
	}
}

// TestTupleEXISTWithoutHRep checks a tuple with no H-representation against
// TupleEXIST: the fast paths still answer from its generators, and a pair
// they leave undecided is geom.ErrNoHRep, not the other tuple's
// satisfiability.
func TestTupleEXISTWithoutHRep(t *testing.T) {
	tri, err := NewTuple(2, []geom.HalfSpace{
		geom.HalfPlane2(1, 0, 0, geom.GE), geom.HalfPlane2(0, 1, 0, geom.GE), geom.HalfPlane2(1, 1, -1, geom.LE),
	})
	if err != nil {
		t.Fatal(err)
	}
	ray := func(x, y, dx, dy float64) *Tuple {
		p, err := geom.FromVertices([]geom.Point{{x, y}}, []geom.Point{{dx, dy}})
		if err != nil {
			t.Fatal(err)
		}
		return FromPolyhedron(p)
	}
	// The ray from (0, 5) along (1, −1) stays on x + y = 5: the boxes meet and
	// no vertex of either lies in the other.
	for _, pair := range [][2]*Tuple{{tri, ray(0, 5, 1, -1)}, {ray(0, 5, 1, -1), tri}} {
		if ok, err := TupleEXIST(pair[0], pair[1]); !errors.Is(err, geom.ErrNoHRep) {
			t.Errorf("TupleEXIST(%v, %v) = %v, %v; want geom.ErrNoHRep", pair[0], pair[1], ok, err)
		}
	}
	// A ray starting inside the triangle is decided by its vertex.
	if ok, err := TupleEXIST(tri, ray(0.25, 0.25, 1, 0)); err != nil || !ok {
		t.Errorf("a ray from inside the triangle: %v, %v; want true", ok, err)
	}
	// A ray whose box misses the triangle's is decided by the boxes.
	if ok, err := TupleEXIST(tri, ray(0, 5, 0, 1)); err != nil || ok {
		t.Errorf("a ray above the triangle: %v, %v; want false", ok, err)
	}
}

func TestSurfaceValueAndRouting(t *testing.T) {
	sq := unitSquare(t, 0, 0, 1)
	// EXIST(≥) uses TOP and sweeps up; ALL(≥) uses BOT and sweeps up.
	qe := Query2(EXIST, 0, 0.5, geom.GE)
	if !qe.UsesTop() || !qe.SweepsUp() {
		t.Error("EXIST(≥) routes to B^up, upward sweep")
	}
	v, err := qe.SurfaceValue(sq)
	if err != nil || math.Abs(v-1) > 1e-9 {
		t.Errorf("TOP(0) of unit square = %v, want 1", v)
	}
	qa := Query2(ALL, 0, 0.5, geom.GE)
	if qa.UsesTop() || !qa.SweepsUp() {
		t.Error("ALL(≥) routes to B^down, upward sweep")
	}
	v, err = qa.SurfaceValue(sq)
	if err != nil || math.Abs(v) > 1e-9 {
		t.Errorf("BOT(0) of unit square = %v, want 0", v)
	}
	qal := Query2(ALL, 0, 0.5, geom.LE)
	if !qal.UsesTop() || qal.SweepsUp() {
		t.Error("ALL(≤) routes to B^up, downward sweep")
	}
	qel := Query2(EXIST, 0, 0.5, geom.LE)
	if qel.UsesTop() || qel.SweepsUp() {
		t.Error("EXIST(≤) routes to B^down, downward sweep")
	}
}

func TestSelectivity(t *testing.T) {
	r := NewRelation(2)
	for i := 0; i < 10; i++ {
		_, _ = r.Insert(unitSquare(t, 0, float64(2*i), 1))
	}
	// y ≥ 9.5: squares with y-range above 9.5 entirely: those at y0=10..18 → 5 of 10.
	sel, err := Query2(ALL, 0, 9.5, geom.GE).Selectivity(r)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sel-0.5) > 1e-9 {
		t.Fatalf("selectivity = %v, want 0.5", sel)
	}
}

package core

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dualcdb/internal/btree"
	"dualcdb/internal/constraint"
	"dualcdb/internal/geom"
	"dualcdb/internal/obs"
)

// TestTable1Covering verifies the covering property behind Table 1: the
// union of the two T1 app-query half-planes contains the original query
// half-plane, for all three slope configurations and both operators.
// This regenerates the paper's Table 1 as a checked property (experiment
// id "table1" in DESIGN.md).
func TestTable1Covering(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	slopes := []float64{-2, -0.5, 0.75, 3}
	for trial := 0; trial < 3000; trial++ {
		q := randQuery(rng)
		if _, exact := nearestOf(slopes, q.Slope[0]); exact {
			continue
		}
		plan, err := PlanT1(q, slopes, rng.Float64()*20-10)
		if err != nil {
			t.Fatal(err)
		}
		qh := q.HalfSpace()
		h1 := plan[0].Query.HalfSpace()
		h2 := plan[1].Query.HalfSpace()
		// Sample points of the original half-plane; each must be in q1 ∪ q2.
		for s := 0; s < 40; s++ {
			p := geom.Pt2(rng.Float64()*400-200, rng.Float64()*400-200)
			if !qh.ContainsStrict(p) {
				continue
			}
			if !h1.Contains(p) && !h2.Contains(p) {
				t.Fatalf("covering violated: %v not in %v ∪ %v (q=%v, plan=%v/%v)",
					p, h1, h2, q, plan[0].Query, plan[1].Query)
			}
		}
		// Table 1 operator pattern.
		a := q.Slope[0]
		a1, a2 := plan[0].Query.Slope[0], plan[1].Query.Slope[0]
		switch {
		case a1 < a && a < a2:
			if plan[0].Query.Op != q.Op || plan[1].Query.Op != q.Op {
				t.Fatalf("main case must keep θ on both: %v", plan)
			}
		case a1 < a && a2 < a, a < a1 && a < a2:
			if plan[0].Query.Op != q.Op || plan[1].Query.Op != q.Op.Negate() {
				t.Fatalf("boundary case operator pattern wrong: %v for a=%v", plan, a)
			}
		default:
			t.Fatalf("unexpected slope configuration a=%v a1=%v a2=%v", a, a1, a2)
		}
		// ALL queries become one ALL + one EXIST app-query (Figure 4).
		if q.Kind == constraint.ALL {
			if plan[0].Query.Kind != constraint.ALL || plan[1].Query.Kind != constraint.EXIST {
				t.Fatalf("ALL must split into ALL+EXIST: %v", plan)
			}
		} else if plan[0].Query.Kind != constraint.EXIST || plan[1].Query.Kind != constraint.EXIST {
			t.Fatalf("EXIST must split into EXIST+EXIST: %v", plan)
		}
	}
}

func nearestOf(slopes []float64, a float64) (int, bool) {
	best, bd := -1, math.Inf(1)
	for i, s := range slopes {
		if d := math.Abs(s - a); d < bd {
			best, bd = i, d
		}
	}
	return best, bd <= geom.Eps
}

// TestAppQueryLinesShareAPoint: both T1 app-query boundary lines pass
// through a common point on the original query line (Section 4.1).
func TestAppQueryLinesShareAPoint(t *testing.T) {
	q := constraint.Query2(constraint.EXIST, 0.3, 2, geom.GE)
	pivotX := 5.0
	plan, err := PlanT1(q, []float64{-1, 0, 1}, pivotX)
	if err != nil {
		t.Fatal(err)
	}
	py := 0.3*pivotX + 2
	for _, app := range plan {
		got := app.Query.Slope[0]*pivotX + app.Query.Intercept
		if math.Abs(got-py) > 1e-9 {
			t.Fatalf("app line misses pivot: %v at x=%v gives %v, want %v", app.Query, pivotX, got, py)
		}
	}
}

// TestT1FixedPivotMatchesScan: a T1 index plans every query slope outside S
// through the pivot at x = 0 — the two sweeps retrieve exactly the tuples
// the app-queries of PlanT1(q, S, 0) accept — and answers as the scan does.
func TestT1FixedPivotMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(212))
	opt := Options{Slopes: EquiangularSlopes(3), Technique: T1}
	rel, ix := buildRandomIndex(t, rng, 300, opt, true)
	planned := 0
	for qi := 0; qi < 200; qi++ {
		q := randQuery(rng)
		got, err := ix.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := q.Eval(rel)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(got.IDs, want) {
			t.Fatalf("%v [%s]: got %v, the scan %v", q, got.Stats.Path, got.IDs, want)
		}
		if got.Stats.Path != "t1" {
			continue // a slope in S: the restricted path
		}
		plan, err := PlanT1(q, ix.Slopes(), 0)
		if err != nil {
			t.Fatal(err)
		}
		retrieved := 0
		for _, app := range plan {
			ids, err := app.Query.Eval(rel)
			if err != nil {
				t.Fatal(err)
			}
			retrieved += len(ids)
		}
		if got.Stats.Candidates != retrieved {
			t.Fatalf("%v: %d candidates, the app-queries through (0, %v) accept %d", q, got.Stats.Candidates, q.Intercept, retrieved)
		}
		planned++
	}
	if planned == 0 {
		t.Fatal("no query took the T1 path")
	}
}

// TestT2FallbackPath: query slopes beyond the outer strips have no handicap
// to stop at — the nearest slope's tree is swept past every subtree its child
// bounds rule out, entries are settled on key and x-extent — and must still
// be exact.
func TestT2FallbackPath(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	opt := Options{Slopes: []float64{-0.5, 0, 0.5}, Technique: T2}
	rel, ix := buildRandomIndex(t, rng, 150, opt, false)
	q := constraint.Query2(constraint.EXIST, 5.0, 0, geom.GE) // far outside S
	got, err := ix.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Path != "t2(outside)" {
		t.Fatalf("path = %q, want t2(outside)", got.Stats.Path)
	}
	want, _ := q.Eval(rel)
	if !sameIDs(got.IDs, want) {
		t.Fatalf("outside the strips: %v vs %v", got.IDs, want)
	}
	if st := got.Stats; st.Candidates > ix.Len() || st.Duplicates != 0 || st.Decided == 0 {
		t.Fatalf("at most one whole tree, no duplicate, some entries decided on their key; got %+v over %d tuples", st, ix.Len())
	}
}

// TestChildBoundsBoundSecondSweep: outside every strip T2's second sweep
// passes, unread, every subtree whose child bound and key range the key rule
// rejects (sweep.step). Over tuples within x ∈ [−10, 10] a query outside the
// strips at a middling intercept reads fewer leaves than the tree holds and
// answers as the scan; a tuple whose key lies Eps/2 past where the bound
// [−10, 10] rules a match out, and which matches, is found, because the skip
// test keeps the sweep's tolerance; a committed tuple far outside the bounds
// is found while a snapshot pinned before the commit keeps its own bounds and
// reads fewer leaves; and one horizontal slab, whose extent is the whole
// line, disables the skip only in the subtrees that hold it.
func TestChildBoundsBoundSecondSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	rel := constraint.NewRelation(2)
	insert := func(tp *constraint.Tuple) {
		if _, err := rel.Insert(tp); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1500; i++ {
		x, y := rng.Float64()*18-9, rng.Float64()*200-100
		insert(box2(t, x, x+rng.Float64(), y, y+rng.Float64()*4))
	}
	// Both hold an end of x ∈ [−10, 10], with their keys at site 0.5 Eps/2 on
	// the far side of where that extent rules out a match of the queries
	// below: they match by Eps/2.
	insert(box2(t, -10, -10, -5-geom.Eps/2, -5-geom.Eps/2)) // TOP(0.5) = −Eps/2
	insert(box2(t, 10, 10, 5+geom.Eps/2, 5+geom.Eps/2))     // BOT(0.5) = +Eps/2
	ix, err := Build(rel, Options{Slopes: []float64{-0.5, 0, 0.5}, Technique: T2})
	if err != nil {
		t.Fatal(err)
	}
	// span is the union of the bounds of every leaf of rs's trees.
	span := func(rs *rootSet) [2]float64 {
		x := [2]float64{math.Inf(1), math.Inf(-1)}
		for _, tr := range rs.trees {
			if err := tr.VisitLeavesAsc(math.Inf(-1), func(lv btree.LeafView) bool {
				x = btree.Union(x, lv.Extent())
				return true
			}); err != nil {
				t.Fatal(err)
			}
		}
		return x
	}
	if got := span(ix.roots.Load()); got != [2]float64{-10, 10} {
		t.Fatalf("built bounds span %v, want [-10, 10]", got)
	}
	leaves := func(q constraint.Query) int {
		n := 0
		site, _ := nearestOf(ix.Slopes(), q.Slope[0])
		if err := ix.roots.Load().tree(site, q).VisitLeavesAsc(math.Inf(-1), func(btree.LeafView) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	type probe struct {
		kind constraint.QueryKind
		op   geom.Op
	}
	var probes []probe
	for _, kind := range []constraint.QueryKind{constraint.EXIST, constraint.ALL} {
		for _, op := range []geom.Op{geom.GE, geom.LE} {
			probes = append(probes, probe{kind, op})
		}
	}
	query := func(what string, q constraint.Query, model *constraint.Relation) QueryStats {
		t.Helper()
		got, err := ix.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := q.Eval(model)
		if err != nil {
			t.Fatal(err)
		}
		if st := got.Stats; st.Path != "t2(outside)" || !sameIDs(got.IDs, want) || st.Duplicates != 0 {
			t.Fatalf("%s %v [%s]: got %v, the scan %v", what, q, st.Path, got.IDs, want)
		}
		return got.Stats
	}

	// A middling intercept: both sweeps together read well short of the tree.
	for _, a := range []float64{2, -3, 1.5} {
		for _, p := range probes {
			q := constraint.Query2(p.kind, a, 0, p.op)
			if st := query("bounded", q, rel); st.LeavesSwept >= leaves(q) {
				t.Errorf("%v: %d leaves swept of %d, %d candidates of %d", q, st.LeavesSwept, leaves(q), st.Candidates, ix.Len())
			}
		}
	}
	// At slope 2 (Δ = 1.5 from site 0.5) a bound reaching x = −10 rules out
	// every key of EXIST y ≥ 2x + 15 below 15 + 1.5·(−10) = 0, and the tuple at
	// x = −10 has TOP(2) = 15 − Eps/2; one reaching x = 10 rules out every key
	// of EXIST y ≤ 2x − 15 above −15 + 1.5·10 = 0, and the one at x = 10 has
	// BOT(2) = −15 + Eps/2.
	for _, q := range []constraint.Query{
		constraint.Query2(constraint.EXIST, 2, 15, geom.GE),
		constraint.Query2(constraint.EXIST, 2, -15, geom.LE),
	} {
		if st := query("at the bound", q, rel); st.Results == 0 {
			t.Fatalf("%v: no answer, want the tuple at the end of the bounds", q)
		}
	}

	// Δ = 0 over an unbounded bound is 0·Inf: no subtree is passed on it, not
	// even one whose keys the intercept rules out; over a finite one the keys
	// alone decide.
	r := slopeRule([][2]float64{}, 1, geom.Eps, 0, true)
	for _, x := range [][2]float64{{math.Inf(-1), 5}, {-5, math.Inf(1)}, noExtent} {
		if got := r.step(btree.Bound{Lo: -3, Hi: -2, X: x}, math.Inf(-1), 0, false); got != btree.Enter {
			t.Fatalf("bound %v, Δ = 0: step %v, want Enter", x, got)
		}
	}
	if got := r.step(btree.Bound{Lo: -3, Hi: -2, X: [2]float64{-5, 5}}, math.Inf(-1), 0, false); got != btree.Pass {
		t.Fatalf("finite bound, Δ = 0, keys below the intercept: step %v, want Pass", got)
	}

	// A committed tuple far outside the bounds: its key at 0.5 is 100 below
	// the intercept, its value at 2 is 1400 above it.
	snap := ix.Snapshot()
	defer snap.Release()
	var before []constraint.TupleID
	q := constraint.Query2(constraint.EXIST, 2, 0, geom.GE)
	rel.Scan(func(tp *constraint.Tuple) bool {
		if ok, err := q.Matches(tp); err != nil {
			t.Fatal(err)
		} else if ok {
			before = append(before, tp.ID())
		}
		return true
	})
	far, err := ix.Insert(box2(t, -1000, -1000, -600, -600))
	if err != nil {
		t.Fatal(err)
	}
	if got := span(ix.roots.Load()); got != [2]float64{-1000, 10} {
		t.Fatalf("bounds span %v after the commit, want [-1000, 10]", got)
	}
	if got := span(snap.rs); got != [2]float64{-10, 10} {
		t.Fatalf("pinned bounds span %v, want [-10, 10]", got)
	}
	got, err := ix.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := q.Eval(rel); !sameIDs(got.IDs, want) || !slices.Contains(got.IDs, far) {
		t.Fatalf("%v after the commit: got %v, want %v with %d", q, got.IDs, want, far)
	}
	old, err := snap.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(old.IDs, before) || old.Stats.LeavesSwept >= got.Stats.LeavesSwept {
		t.Fatalf("%v on the pinned version: got %v (%d leaves), want %v in fewer than %d", q, old.IDs, old.Stats.LeavesSwept, before, got.Stats.LeavesSwept)
	}

	// One horizontal slab: its extent is the whole line, so no subtree that
	// holds it is passed, but the others still are.
	slab, err := constraint.ParseTuple("y >= 0 && y <= 1", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Insert(slab); err != nil {
		t.Fatal(err)
	}
	for _, p := range probes {
		q := constraint.Query2(p.kind, 2, 0, p.op)
		if st := query("with a slab", q, rel); st.LeavesSwept >= leaves(q) {
			t.Errorf("%v with a slab: %d leaves swept of %d", q, st.LeavesSwept, leaves(q))
		}
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestChildBoundsKeepTheirMargin: a child bound rules a match out only up to
// the sweep's tolerance, so the skip test must not pass a subtree whose
// entries lie between the two sweeps' ends. At slope 3.28e-9 (site 0,
// Δ = 3.28e-9) a subtree bounded by x = −10 rules out keys of y ≥ a·x below
// −3.28e-8, within the tolerance of the intercept, yet the point
// (−10, −3.35e-8), keyed below the first sweep's end, matches by 7e-10. The
// ≤ selection mirrors it with the point (10, 3.35e-8); both points match
// either selection. Each query answers as the scan, and the second sweep's
// skip test enters a subtree that holds either point alone.
func TestChildBoundsKeepTheirMargin(t *testing.T) {
	rel := constraint.NewRelation(2)
	var points []*constraint.Tuple
	for _, p := range [][2]float64{{-10, -3.35e-8}, {10, 3.35e-8}} {
		tp := box2(t, p[0], p[0], p[1], p[1])
		if _, err := rel.Insert(tp); err != nil {
			t.Fatal(err)
		}
		points = append(points, tp)
	}
	ix, err := Build(rel, Options{Slopes: []float64{-0.5, 0, 0.5}, Technique: T2})
	if err != nil {
		t.Fatal(err)
	}
	ext := ix.roots.Load().extents
	for _, kind := range []constraint.QueryKind{constraint.EXIST, constraint.ALL} {
		for _, op := range []geom.Op{geom.GE, geom.LE} {
			q := constraint.Query2(kind, 3.28e-9, 0, op)
			got, err := ix.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := q.Eval(rel)
			if err != nil {
				t.Fatal(err)
			}
			if got.Stats.Path != "t2" || len(want) != 2 || !sameIDs(got.IDs, want) {
				t.Fatalf("%v [%s]: got %v, the scan %v", q, got.Stats.Path, got.IDs, want)
			}
			r, err := ix.geo.route(q.Slope, q.SweepsUp())
			if err != nil {
				t.Fatal(err)
			}
			tol, rule := t2Rule(r, q, ext)
			far := math.Inf(-1) // the tree's far end: no handicap bounds the sweep
			if !q.SweepsUp() {
				far = math.Inf(1)
			}
			second := secondSweep(q.Intercept, tol, q.SweepsUp(), far)
			lo, hi := btree.RoundKey(second.lo), btree.RoundKey(second.hi)
			for _, tp := range points {
				top, bot := ix.keys(tp, r.site)
				k := btree.RoundKey(bot)
				if q.UsesTop() {
					k = btree.RoundKey(top)
				}
				if k < lo || k > hi {
					continue // the first sweep's
				}
				if step := rule.step(btree.Bound{Lo: k, Hi: k, X: outward(xExtent(tp))}, lo, hi, second.asc); step != btree.Enter {
					t.Fatalf("%v: the second sweep's skip test gives %v on a subtree holding only tuple %d (key %v), want Enter", q, step, tp.ID(), k)
				}
			}
		}
	}
}

// TestSkipKeepsKeyRounding: the skip test judges stored keys, each within
// btree.RoundingError of the key it was rounded from, and must widen by that
// as atLeaf does. 601 points at x = −10 (resp. 10) keyed at site 0.5 exactly
// 100 (−100), and among them one whose key 100 + 3e-6 (−100 − 3e-6) rounds
// to the same float32: at slope 2, outside the strips, the selection at that
// point's own value matches it alone, though every stored key of its leaf
// and both separators around it read 15 + 3e-6 short of the intercept.
func TestSkipKeepsKeyRounding(t *testing.T) {
	for _, c := range []struct {
		x, y float64
		op   geom.Op
	}{{-10, 95, geom.GE}, {10, -95, geom.LE}} {
		rel := constraint.NewRelation(2)
		point := func(y float64) *constraint.Tuple {
			tp := box2(t, c.x, c.x, y, y)
			if _, err := rel.Insert(tp); err != nil {
				t.Fatal(err)
			}
			return tp
		}
		for i := 0; i < 300; i++ {
			point(c.y)
		}
		target := point(c.y + math.Copysign(3e-6, c.y))
		for i := 0; i < 300; i++ {
			point(c.y)
		}
		ix, err := Build(rel, Options{Slopes: []float64{-0.5, 0, 0.5}, Technique: T2})
		if err != nil {
			t.Fatal(err)
		}
		q := constraint.Query2(constraint.EXIST, 2, 0, c.op)
		if q.Intercept, err = q.SurfaceValue(target); err != nil {
			t.Fatal(err)
		}
		got, err := ix.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := q.Eval(rel); got.Stats.Path != "t2(outside)" || !sameIDs(got.IDs, want) || !slices.Equal(want, []constraint.TupleID{target.ID()}) {
			t.Fatalf("%v [%s]: got %v, the scan %v; want tuple %d alone", q, got.Stats.Path, got.IDs, want, target.ID())
		}
	}
}

// TestT2MarginCoversProductRounding: T2's margin is Eps plus
// δ = t2Slack(|a| + |Δ|) because the key rule brackets a value it does not
// compute: k − Δ·x rounds differently from the kernel's value at the query
// slope, by an ulp of |Δ·x|, which at x near 1e6 and |Δ| in the hundreds is
// ten times Eps. Points on the line y = 0.5x, up to 1e-3, keep their keys at
// site 0.5 — and so the keys' own rounding, atLeaf's widening — tiny; at
// steep slopes outside the strips every selection at such a point's own
// value, an ulp either side of it and Eps off it must answer as the scan.
// With the margin cut back to bare Eps the rule rejects some of them.
//
// The tangent's margin has a term of its own, |Δ|·step: a triangle whose top
// vertex (x*, 10), attaining TOP at the site 0, lies 0.45 of a tangent step
// (100/255) past infX = 0 has byte 0, so the tangent line its byte places is
// 0.45·step·|Δ| = 0.035 off at Δ = 0.2, where that vertex still attains TOP.
// Selections in B^up at intercepts within step·|Δ| = 0.078 of its value must
// answer as the scan — without the step term the rule decides some of them
// wrongly — and some further away are settled by the tangent.
func TestT2MarginCoversProductRounding(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	rel := constraint.NewRelation(2)
	var pts []*constraint.Tuple
	for i := 0; i < 300; i++ {
		x := 1e5 + rng.Float64()*8e5
		tp := box2(t, x, x, 0.5*x+(rng.Float64()*2-1)*1e-3, 0.5*x+(rng.Float64()*2-1)*1e-3)
		if _, err := rel.Insert(tp); err != nil {
			t.Fatal(err)
		}
		pts = append(pts, tp)
	}
	p, err := geom.FromVertices([]geom.Point{{0, 0}, {100, 0}, {0.45 * 100 / 255, 10}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tri := constraint.FromPolyhedron(p)
	if _, err := rel.Insert(tri); err != nil {
		t.Fatal(err)
	}
	ix, err := Build(rel, Options{Slopes: []float64{-0.5, 0, 0.5}, Technique: T2})
	if err != nil {
		t.Fatal(err)
	}
	if q := ix.roots.Load().tan[int(tri.ID()-1)*6+2]; q != 0 { // B^up of site 1, slope 0
		t.Fatalf("the triangle's TOP byte at slope 0 is %d, want 0", q)
	}
	byTangent := 0
	for _, kind := range []constraint.QueryKind{constraint.EXIST, constraint.ALL} {
		op := geom.GE // B^up: EXIST(≥), ALL(≤)
		if kind == constraint.ALL {
			op = geom.LE
		}
		q := constraint.Query2(kind, 0.2, 0, op)
		v := mustTop(t, tri, 0.2)
		for _, off := range []float64{0, geom.Eps, -geom.Eps, 0.01, -0.01, 0.03, -0.03, 0.06, -0.06, 0.1, -0.1} {
			q.Intercept = v + off
			got, err := ix.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := q.Eval(rel); got.Stats.Path != "t2" || !sameIDs(got.IDs, want) {
				t.Fatalf("%v [%s]: got %v, the scan %v", q, got.Stats.Path, got.IDs, want)
			}
			byTangent += got.Stats.Tangent
		}
	}
	if byTangent == 0 {
		t.Fatal("the tangent settled nothing")
	}
	for i := 0; i < 400; i++ {
		a := (20 + rng.Float64()*980) * float64(1-2*rng.Intn(2))
		kind, op := constraint.QueryKind(rng.Intn(2)), geom.Op(rng.Intn(2))
		q := constraint.Query2(kind, a, 0, op)
		v, err := q.SurfaceValue(pts[rng.Intn(len(pts))])
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []float64{v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)), v + geom.Eps, v - geom.Eps} {
			q.Intercept = b
			got, err := ix.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := q.Eval(rel); !sameIDs(got.IDs, want) {
				t.Fatalf("%v [%s]: got %d ids, the scan %d", q, got.Stats.Path, len(got.IDs), len(want))
			}
		}
	}
}

// TestT2UsesSingleTree: a T2 query must read strictly fewer distinct pages
// than the tree total, and its path must be "t2" for in-strip slopes.
func TestT2PathForInStripSlopes(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
	opt := Options{Slopes: []float64{-1, 0, 1}, Technique: T2}
	_, ix := buildRandomIndex(t, rng, 200, opt, false)
	for _, a := range []float64{-0.7, -0.2, 0.3, 0.9, 1.4} {
		q := constraint.Query2(constraint.EXIST, a, 0, geom.GE)
		got, err := ix.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats.Path != "t2" {
			t.Fatalf("slope %v: path %q", a, got.Stats.Path)
		}
	}
}

// TestRestrictedIOCost checks Theorem 3.1's shape, with bounds derived from
// the layout: a restricted query sweeps the leaves that hold the entries it
// retrieves — ⌈entries / per leaf⌉ at a bulk load's fill, plus the leaf it
// starts in and a short last one — and reads each of them and the root once.
func TestRestrictedIOCost(t *testing.T) {
	rng := rand.New(rand.NewSource(204))
	opt := Options{Slopes: []float64{0}, Technique: RestrictedOnly, PoolPages: 2048}
	_, ix := buildRandomIndex(t, rng, 2000, opt, false)
	tr := ix.trees[0]
	perLeaf := int(float64(tr.LeafCapacity()) * btree.DefaultFillFactor)
	if tr.Height() != 2 {
		t.Fatalf("height %d: the bound below counts one internal level", tr.Height())
	}
	for _, b := range []float64{49.5, 0, math.Inf(-1)} { // a few results, some, all
		if err := ix.Pool().EvictAll(); err != nil {
			t.Fatal(err)
		}
		q := constraint.Query2(constraint.EXIST, 0, b, geom.GE)
		got, err := ix.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		st := got.Stats
		if maxLeaves := (st.Candidates+perLeaf-1)/perLeaf + 2; st.LeavesSwept > maxLeaves {
			t.Fatalf("%v: swept %d leaves for %d entries, at most %d at %d a leaf", q, st.LeavesSwept, st.Candidates, maxLeaves, perLeaf)
		}
		if st.PagesRead != uint64(st.LeavesSwept+1) {
			t.Fatalf("%v: read %d pages for %d leaves under one root", q, st.PagesRead, st.LeavesSwept)
		}
	}
}

// TestIndexPagesFollowLayout: a bulk-loaded index is 2k trees of exactly the
// pages BulkLoad packs at the layout's capacities. At 1 KiB with four slots a
// leaf holds 124 entries and an internal node 49 separators, so N = 12 000 at
// k = 4 — the benchmark's index — is 8 × (108 leaves + 3 internal nodes + the
// root) = 896 pages.
func TestIndexPagesFollowLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, n := range []int{2000, 12000} {
		rel := constraint.NewRelation(2)
		for rel.Len() < n {
			if _, err := rel.Insert(randTuple(rng, false)); err != nil {
				t.Fatal(err)
			}
		}
		for _, k := range []int{2, 4} {
			ix, err := Build(rel, Options{Slopes: EquiangularSlopes(k), Technique: T2})
			if err != nil {
				t.Fatal(err)
			}
			tr := ix.trees[0]
			if tr.LeafCapacity() != 124 || tr.InternalCapacity() != 49 || ix.Len() != n {
				t.Fatalf("capacities %d/%d with %d tuples indexed; want 124/49 and %d", tr.LeafCapacity(), tr.InternalCapacity(), ix.Len(), n)
			}
			want := 2 * k * bulkLoadedPages(n, tr.LeafCapacity(), tr.InternalCapacity())
			if n == 12000 && k == 4 && want != 896 {
				t.Fatalf("the model gives %d pages at N = 12 000, k = 4; want 896", want)
			}
			if got := ix.Pages(); got != want {
				t.Fatalf("N = %d, k = %d: %d pages, the layout's %d", n, k, got, want)
			}
		}
	}
}

// bulkLoadedPages models BulkLoad's packing of n entries: leaves of
// int(leafCap · fill) entries, internal nodes of intCap + 1 children, each
// level's last two nodes balanced so that neither is below the minimum fill.
func bulkLoadedPages(n, leafCap, intCap int) int {
	perLeaf, minLeaf, minChildren := int(float64(leafCap)*btree.DefaultFillFactor), leafCap/2, (intCap-1)/2+1
	nodes := 0
	for i := 0; i < n; nodes++ {
		take := min(perLeaf, n-i)
		if rem := n - i; rem > take && rem-take < minLeaf {
			if take = rem - minLeaf; take < minLeaf {
				take = rem
			}
		}
		i += take
	}
	pages := nodes
	for nodes > 1 {
		level := 0
		for i := 0; i < nodes; level++ {
			take := min(intCap+1, nodes-i)
			if rem := nodes - i; rem > take && rem-take < minChildren {
				take = rem - minChildren
			}
			i += take
		}
		nodes, pages = level, pages+level
	}
	return pages
}

// TestFigure1WindowClippingUnsound reproduces the paper's Figure 1
// motivation: clipping unbounded objects at a window is incorrect — the
// dual index answers the EXIST query correctly where a window-clipped
// approximation would not.
func TestFigure1WindowClippingUnsound(t *testing.T) {
	rel := constraint.NewRelation(2)
	ix, err := New(rel, Options{Slopes: EquiangularSlopes(3), Technique: T2})
	if err != nil {
		t.Fatal(err)
	}
	// Unbounded tuple t2: a narrow upward wedge far right of the window.
	t2, err := constraint.ParseTuple("y >= x - 100 && y <= x - 99", 2)
	if err != nil {
		t.Fatal(err)
	}
	id, err := ix.Insert(t2)
	if err != nil {
		t.Fatal(err)
	}
	// Query q: y ≥ −x + 100. Inside the window [−50,50]² the strip and the
	// query half-plane are disjoint; they intersect only far outside it
	// (x ≈ 100). The exact index must report the intersection.
	q := constraint.Query2(constraint.EXIST, -1, 100, geom.GE)
	got, err := ix.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.IDs) != 1 || got.IDs[0] != id {
		t.Fatalf("unbounded intersection missed: %v", got.IDs)
	}
	// Window-clipped version of the same tuple (what a bounding-box
	// structure would store) does NOT intersect the query.
	clipped, err := constraint.ParseTuple(
		"y >= x - 100 && y <= x - 99 && x >= -50 && x <= 50 && y >= -50 && y <= 50", 2)
	if err != nil {
		t.Fatal(err)
	}
	if clipped.IsSatisfiable() {
		ok, err := q.Matches(clipped)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatal("clipped tuple should not intersect the query inside the window")
		}
	}
}

// TestQueryStatsConsistency: stats must satisfy their defining identities
// on arbitrary queries.
func TestQueryStatsConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(205))
	// A one-slot ring with a 1 ns threshold holds the latest query's trace.
	o := obs.New(obs.Options{SlowThreshold: 1})
	_, ix := buildRandomIndex(t, rng, 250, Options{Slopes: EquiangularSlopes(4), Technique: T2, Observe: o}, true)
	decided, byTangent := 0, 0
	for qi := 0; qi < 60; qi++ {
		q := randQuery(rng)
		got, err := ix.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		st := got.Stats
		if st.Results != len(got.IDs) {
			t.Fatalf("Results %d != len(IDs) %d", st.Results, len(got.IDs))
		}
		if st.Candidates < st.Results {
			t.Fatalf("candidates %d < results %d", st.Candidates, st.Results)
		}
		if st.Candidates != st.Results+st.FalseHits+st.Duplicates {
			t.Fatalf("accounting: %+v", st)
		}
		// Candidates − Duplicates = Decided + evaluated, the evaluated ones
		// being what the refine span reports as its items.
		evaluated := -1
		for _, sp := range o.SlowTraces()[0].Spans {
			if sp.Stage == obs.StageRefine.String() {
				evaluated = sp.Items
			}
		}
		if st.Candidates-st.Duplicates != st.Decided+evaluated {
			t.Fatalf("%v: %d distinct candidates, %d decided, %d evaluated: %+v", q, st.Candidates-st.Duplicates, st.Decided, evaluated, st)
		}
		// The sure ones are the decided ones in the answer; the rest of the
		// answer was evaluated.
		if st.Sure > st.Decided || st.Sure > st.Results || st.Results-st.Sure > evaluated {
			t.Fatalf("%v: %d sure of %d decided, %d evaluated, %d results: %+v", q, st.Sure, st.Decided, evaluated, st.Results, st)
		}
		// The tangent's are some of the decided ones, and only T2 has one.
		if st.Tangent < 0 || st.Tangent > st.Decided || (st.Tangent > 0 && !strings.HasPrefix(st.Path, "t2")) {
			t.Fatalf("%v: %d decided by the tangent of %d decided: %+v", q, st.Tangent, st.Decided, st)
		}
		decided += st.Decided
		byTangent += st.Tangent
	}
	if decided == 0 || byTangent == 0 {
		t.Fatalf("%d entries decided on their key, %d by the tangent: want some of each", decided, byTangent)
	}
	// On a site the keys are the answer (Theorem 3.1): only an entry whose
	// stored key equals the rounded bound is evaluated.
	var ts []*constraint.Tuple
	ix.rel.Scan(func(tp *constraint.Tuple) bool {
		ts = append(ts, tp)
		return true
	})
	for qi, a := range ix.Slopes() {
		q := randQuery(rng)
		q.Slope[0], q.Intercept = a, float64(qi*7-10)
		got, err := ix.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		slack := atRoundedBound(q, ts)
		for _, sp := range o.SlowTraces()[0].Spans {
			if sp.Stage == obs.StageRefine.String() && sp.Items > slack {
				t.Fatalf("%v: %d tuples evaluated on a site, %d stored keys at the rounded bound", q, sp.Items, slack)
			}
		}
		if st := got.Stats; st.Candidates == 0 || st.Results < st.Candidates-slack || !onSiteSettled(st, slack) {
			t.Fatalf("%v: %+v; want every retrieved entry but those at the rounded bound decided and in the answer", q, st)
		}
	}
}

// atRoundedBound counts the satisfiable tuples of ts whose stored key for q —
// the surface value at q's slope, rounded as the tree stores it
// (btree.RoundKey) — equals q's rounded bound b ∓ Eps: on a site the only
// entries a restricted sweep evaluates instead of settling on their key, so
// the most evaluations and false hits it may report.
func atRoundedBound(q constraint.Query, ts []*constraint.Tuple) int {
	bound := q.Intercept - geom.Eps
	if !q.SweepsUp() {
		bound = q.Intercept + geom.Eps
	}
	n := 0
	for _, tp := range ts {
		if tp.IsSatisfiable() && btree.RoundKey(surfaceOf(tp, q)) == btree.RoundKey(bound) {
			n++
		}
	}
	return n
}

// onSiteSettled reports whether a query's stats keep the on-site rule: it ran
// the restricted path, with no duplicates, evaluating at most the slack
// entries whose stored key equals the rounded bound and settling every other
// on its key, and any false hit is among the evaluated.
func onSiteSettled(st QueryStats, slack int) bool {
	evaluated := st.Candidates - st.Duplicates - st.Decided
	return st.Path == "restricted" && st.Duplicates == 0 && evaluated <= slack && st.FalseHits <= evaluated
}

// TestQueryRejectsBadInput exercises input validation.
func TestQueryRejectsBadInput(t *testing.T) {
	rel := constraint.NewRelation(2)
	ix, err := New(rel, Options{Slopes: EquiangularSlopes(2)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Query(constraint.Query2(constraint.EXIST, math.NaN(), 0, geom.GE)); err == nil {
		t.Error("NaN slope must be rejected")
	}
	nanB := constraint.Query2(constraint.EXIST, 0.3, math.NaN(), geom.GE)
	if _, err := ix.Query(nanB); err == nil {
		t.Error("NaN intercept must be rejected")
	}
	if _, err := ix.QueryLine(0.3, math.NaN()); err == nil {
		t.Error("NaN intercept must be rejected by QueryLine")
	}
	if _, err := ix.QueryBatch([]constraint.Query{nanB}, BatchOptions{}); err == nil {
		t.Error("NaN intercept must be rejected by QueryBatch")
	}
	if _, err := ix.Query(constraint.Query2(constraint.EXIST, 0.3, math.Inf(-1), geom.GE)); err != nil {
		t.Errorf("an infinite intercept is legal: %v", err)
	}
	if _, err := ix.Query(constraint.Query2(constraint.EXIST, math.Inf(1), 0, geom.GE)); err == nil {
		t.Error("infinite slope must be rejected")
	}
	if _, err := ix.Query(constraint.NewQuery(constraint.EXIST, []float64{0, 0}, 0, geom.GE)); err == nil {
		t.Error("3-D query must be rejected by a 2-D index")
	}
}

// TestSureReferenceToDeadTupleFails: a site tree of a published version that
// holds a reference to a tuple the version does not hold fails every query
// that puts the reference into the answer on its key — the restricted path,
// and T2 where the key rule accepts the reference's leaf whole — with
// ErrNotFound, never with an answer. The references are a deleted tuple's id
// (its x-extent stays in the append-only table, so a bound on the table or on
// MaxID lets it through), id 0, the id just past MaxID and one far past it.
func TestSureReferenceToDeadTupleFails(t *testing.T) {
	queries := []struct {
		path string
		q    constraint.Query
	}{
		{"restricted", constraint.Query2(constraint.EXIST, 0, -100, geom.GE)},
		{"t2", constraint.Query2(constraint.EXIST, 0.3, -100, geom.GE)},
	}
	// Enough tuples for two levels: a root leaf has no bound to settle it by.
	const n = 300
	build := func(t *testing.T) *Index {
		rel := constraint.NewRelation(2)
		for i := 0; i < n; i++ {
			x, y := float64(i%5)*0.3, 1+float64(i)*0.003
			if _, err := rel.Insert(box2(t, x, x+0.5, y, y+0.5)); err != nil {
				t.Fatal(err)
			}
		}
		ix, err := Build(rel, Options{Slopes: []float64{-1, 0, 1}, Technique: T2})
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	const dead = 7 // MaxID stays n after its delete
	for _, c := range []struct {
		what string
		tid  uint32
	}{
		{"deleted", dead},
		{"id 0", 0},
		{"past MaxID", n + 1},
		{"far past MaxID", 1 << 20},
	} {
		t.Run(c.what, func(t *testing.T) {
			ix := build(t)
			for _, qc := range queries {
				if res, err := ix.Query(qc.q); err != nil || res.Stats.Path != qc.path || len(res.IDs) != n {
					t.Fatalf("%v before the damage: %d ids on path %q, %v; want all %d on %q", qc.q, len(res.IDs), res.Stats.Path, err, n, qc.path)
				}
			}
			if err := ix.Delete(dead); err != nil {
				t.Fatal(err)
			}
			tid := c.tid
			cm := ix.Begin()
			for j := 0; j < 2*ix.geo.sites(); j++ {
				if err := ix.trees[j].InsertExt(1.5, tid, [2]float64{0.5, 0.5}); err != nil {
					t.Fatal(err)
				}
			}
			if err := cm.Commit(); err != nil {
				t.Fatal(err)
			}
			for _, qc := range queries {
				// The reference reaches refinement as a sure one, not as a
				// candidate refinement resolves anyway.
				rs := ix.pinRoots()
				r, err := ix.geo.route(qc.q.Slope, qc.q.SweepsUp())
				if err != nil {
					t.Fatal(err)
				}
				sc := getScratch(rs)
				if r.onSite {
					_, err = ix.collectRestricted(r, qc.q, ix.execCtxFor(rs), sc)
				} else {
					_, err = ix.collectT2(r, qc.q, ix.execCtxFor(rs), sc)
				}
				if err != nil || !slices.Contains(sc.sure, tid) {
					t.Fatalf("%v: reference %d not settled on its key (%v; sure %v, cands %v)", qc.q, tid, err, sc.sure, sc.cands)
				}
				putScratch(sc)
				ix.unpinRoots(rs)

				if res, err := ix.Query(qc.q); !errors.Is(err, constraint.ErrNotFound) {
					t.Errorf("%v with a reference to %d: ids %v, %v; want ErrNotFound", qc.q, tid, res.IDs, err)
				}
			}
		})
	}
}

// TestEmptyIndexQueries: queries on an empty index return empty results.
func TestEmptyIndexQueries(t *testing.T) {
	rel := constraint.NewRelation(2)
	ix, err := New(rel, Options{Slopes: EquiangularSlopes(3)})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(206))
	for i := 0; i < 20; i++ {
		got, err := ix.Query(randQuery(rng))
		if err != nil {
			t.Fatal(err)
		}
		if len(got.IDs) != 0 {
			t.Fatalf("empty index returned %v", got.IDs)
		}
	}
}

// TestQueryAllocsIndependentOfCandidates: a warm Index.Query allocates the
// same small number of objects — its execution context and the result
// slice — whether it refines a few hundred candidates or several thousand,
// on the T2 path inside and outside the strips and on the restricted path:
// candidates, decided entries and the ordered answer all live in pooled
// scratch.
func TestQueryAllocsIndependentOfCandidates(t *testing.T) {
	slopes := EquiangularSlopes(3)
	queries := []struct {
		path string
		q    constraint.Query
	}{
		{"t2", constraint.Query2(constraint.EXIST, slopes[1]+0.05, 0, geom.GE)},
		{"t2(outside)", constraint.Query2(constraint.EXIST, 500, 0, geom.GE)},
		{"restricted", constraint.Query2(constraint.ALL, slopes[1], 0, geom.LE)},
	}
	var allocs [2][3]float64
	for i, n := range []int{500, 5000} {
		_, ix := buildRandomIndex(t, rand.New(rand.NewSource(5)), n, Options{Slopes: slopes, Technique: T2, PoolPages: 1 << 14}, true)
		for j, c := range queries {
			res, err := ix.Query(c.q) // warms the pool, the extensions and the scratch
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Path != c.path || res.Stats.Candidates < n/10 {
				t.Fatalf("N=%d %v: path %q with %d candidates; want %q and at least %d", n, c.q, res.Stats.Path, res.Stats.Candidates, c.path, n/10)
			}
			allocs[i][j] = steadyAllocs(func() {
				if _, err := ix.Query(c.q); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
	t.Logf("allocs/query at N=500: %v, at N=5000: %v", allocs[0], allocs[1])
	for j, c := range queries {
		if allocs[0][j] != allocs[1][j] || allocs[1][j] > 6 {
			t.Errorf("%s: %v allocs/query at N=500, %v at N=5000; want the same small constant", c.path, allocs[0][j], allocs[1][j])
		}
	}
}

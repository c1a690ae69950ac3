package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dualcdb/internal/btree"
	"dualcdb/internal/constraint"
	"dualcdb/internal/geom"
	"dualcdb/internal/obs"
)

// shapes2 lists one 2-D tuple per kind of extension keyRule must get right:
// bounded polygons, a wedge and a half-plane (x-unbounded: never decided), a
// region under vertices (vertical ray: x-bounded, BOT −Inf), a segment and
// a point (TOP and BOT on one dual line), and the two shapes whose envelope
// and support value disagree (engine_test.go).
func shapes2(t testing.TB, rng *rand.Rand) []*constraint.Tuple {
	t.Helper()
	fromVerts := func(verts, rays []geom.Point) *constraint.Tuple {
		p, err := geom.FromVertices(verts, rays)
		if err != nil {
			t.Fatal(err)
		}
		return constraint.FromPolyhedron(p)
	}
	parse := func(s string) *constraint.Tuple {
		tp, err := constraint.ParseTuple(s, 2)
		if err != nil {
			t.Fatal(err)
		}
		return tp
	}
	ts := []*constraint.Tuple{
		parse("y >= 2x - 3 && y >= -x + 1"),                                     // wedge
		parse("y <= 0.3x + 4"),                                                  // half-plane
		parse("y >= x - 100 && y <= x - 99"),                                    // strip
		parse("x >= 1 && x <= 3 && y >= 2"),                                     // vertical rays up
		fromVerts([]geom.Point{{-4, 1}, {6, -2}}, nil),                          // segment
		fromVerts([]geom.Point{{2, 2}, {2, 9}}, nil),                            // vertical segment
		fromVerts([]geom.Point{{7, -3}}, nil),                                   // point
		fromVerts([]geom.Point{{-2, 5}, {0, 8}, {3, 4}}, []geom.Point{{0, -1}}), // region under vertices
		steepCone(t),
		alignedVertices(t),
	}
	for i := 0; i < 12; i++ {
		ts = append(ts, randTuple(rng, false))
	}
	for i := 0; i < 12; i++ {
		ts = append(ts, randTuple(rng, true))
	}
	return ts
}

// surfaceOf is the predicate's value for q's shape: TOP^P or BOT^P of the
// satisfiable tuple tp at q's slope, by the support scan.
func surfaceOf(tp *constraint.Tuple, q constraint.Query) float64 {
	v, _ := tp.Bot(q.Slope)
	if q.UsesTop() {
		v, _ = tp.Top(q.Slope)
	}
	return v
}

// t2Margin is collectT2's tolerance μ for a query at slope a served from the
// keys of slope s.
func t2Margin(s, a float64) float64 {
	return geom.Eps + t2Slack(math.Abs(a)+math.Abs(a-s))
}

// TestT2BoundaryMatchesScan pins T2's filter, second-sweep trigger and
// decided-by-key rule at their edges. For slopes inside every strip half, a
// hair beyond a site and within Eps of it on either side (each with its
// neighbour on that side, if any), on strip borders — a strip's midpoint —
// and outside every strip × ALL/EXIST × ≥/≤ it queries intercepts on, and
// one Eps, one δ and one margin either side of, every tuple's surface value
// at the query slope — each also one ulp further in and out — over every
// shape of shapes2. Answers must be the naive scan's, no reference may come
// twice, and a whole-tree sweep must retrieve every indexed tuple.
func TestT2BoundaryMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(20261002))
	slopes := []float64{-1.5, -0.25, 0.5, 2}
	rel := constraint.NewRelation(2)
	ts := shapes2(t, rng)
	for _, tp := range ts {
		if _, err := rel.Insert(tp); err != nil {
			t.Fatal(err)
		}
	}
	// A one-slot ring with a 1 ns threshold holds the latest query's trace.
	o := obs.New(obs.Options{SlowThreshold: 1})
	ix, err := Build(rel, Options{Slopes: slopes, Technique: T2, Observe: o})
	if err != nil {
		t.Fatal(err)
	}
	type at struct {
		a    float64
		path string
	}
	var probes []at
	strips := ix.geo.(*slopeSet)
	for i, s := range slopes {
		lo, hi := strips.stripBounds(i)
		probes = append(probes,
			at{s - 0.1, "t2"}, at{s + 0.1, "t2"}, // both strip halves
			at{s + 3*geom.Eps, "t2"}, at{s - 1e-6, "t2"}, // a hair off the site
			at{s + geom.Eps/2, "t2"}, at{s - geom.Eps/2, "t2"}, // within Eps of it
			at{lo, "t2"}, at{hi, "t2"}) // on the strip's borders
	}
	first, _ := strips.stripBounds(0)
	_, last := strips.stripBounds(len(slopes) - 1)
	probes = append(probes,
		at{last + 1e-9, "t2(outside)"}, at{first - 1e-9, "t2(outside)"}, // just past the outer strips
		at{40, "t2(outside)"}, at{-40, "t2(outside)"})

	queries, decided := 0, 0
	for _, p := range probes {
		site := strips.nearest(p.a)
		m := t2Margin(slopes[site], p.a)
		for _, kind := range []constraint.QueryKind{constraint.ALL, constraint.EXIST} {
			for _, op := range []geom.Op{geom.GE, geom.LE} {
				q := constraint.Query2(kind, p.a, 0, op)
				for _, tp := range ts {
					v := surfaceOf(tp, q)
					if math.IsInf(v, 0) {
						continue
					}
					bs := []float64{v}
					for _, off := range []float64{geom.Eps, t2Slack(math.Abs(p.a)), m} {
						for _, b := range []float64{v - off, v + off} {
							bs = append(bs, b, math.Nextafter(b, math.Inf(-1)), math.Nextafter(b, math.Inf(1)))
						}
					}
					for _, b := range bs {
						q.Intercept = b
						queries++
						got, err := ix.Query(q)
						if err != nil {
							t.Fatalf("%v: %v", q, err)
						}
						want, err := q.Eval(rel)
						if err != nil {
							t.Fatal(err)
						}
						st := got.Stats
						if st.Path != p.path {
							t.Fatalf("%v: path %q, want %q", q, st.Path, p.path)
						}
						if !sameIDs(got.IDs, want) {
							t.Fatalf("%v [%s, site %v, tuple %d at value %v]: got %v, want %v", q, st.Path, slopes[site], tp.ID(), v, got.IDs, want)
						}
						evaluated := refineItems(o)
						if st.Duplicates != 0 || st.Candidates != st.Decided+evaluated || evaluated != st.FalseHits+st.Results-st.Sure {
							t.Fatalf("%v: accounting %+v with %d evaluated", q, st, evaluated)
						}
						if st.Path == "t2(outside)" && st.Candidates > ix.Len() {
							t.Fatalf("%v: %d candidates from a tree of %d", q, st.Candidates, ix.Len())
						}
						decided += st.Decided
					}
				}
			}
		}
	}
	if decided == 0 {
		t.Fatal("no entry was ever decided on its key")
	}
	t.Logf("%d boundary queries, %d entries decided on their key", queries, decided)
}

// slopeBoundHolds checks keyRule against the predicate for one tuple in an
// index over the slopes S, queried at slope a and intercept b, in all four
// shapes: the query is routed as collectT2 routes it, and a decision — by the
// rule collectT2 builds over the tables of a version holding that tuple
// alone, applied as a sweep applies it to a leaf holding the tuple's key at
// the routed site, rounded to float32, alone: the bracket first and the
// tangents on what it leaves — must be the predicate's, and a non-finite key
// or extent must never be decided. It returns how many shapes were decided,
// how many of those by a tangent, and how many of those by the neighbour's.
func slopeBoundHolds(tp *constraint.Tuple, slopes []float64, a, b float64) (decided, byTangent, byNeighbour int, err error) {
	x := xExtent(tp)
	geo := newSlopeSet(slopes)
	ext := extents{xext: [][2]float64{x}, tan: appendTangents(nil, tp, x, geo), stride: 2 * len(slopes)}
	for _, kind := range []constraint.QueryKind{constraint.ALL, constraint.EXIST} {
		for _, op := range []geom.Op{geom.GE, geom.LE} {
			q := constraint.Query2(kind, a, b, op)
			r, err := geo.route(q.Slope, q.SweepsUp())
			if err != nil {
				return decided, byTangent, byNeighbour, err
			}
			s := slopes[r.site]
			// The tree key: the kernel's value at the site, as the tree stores it.
			key := btree.RoundKey(surfaceOf(tp, constraint.Query2(kind, s, b, op)))
			m := math.Abs(key)
			if math.IsInf(m, 0) {
				m = 0 // finiteKeyBound of a leaf with no finite key
			}
			_, rule := t2Rule(r, q, ext)
			rule = rule.atLeaf(m)
			own := rule
			own.next = 0
			v, tangent, neighbour := rule.decide(key, x), false, false
			if v == evaluate {
				v = rule.tangent(key, x, ext.tan)
				tangent = v != evaluate
				neighbour = tangent && own.tangent(key, x, ext.tan) == evaluate
			}
			if v == evaluate {
				continue
			}
			decided++
			if tangent {
				byTangent++
			}
			if neighbour {
				byNeighbour++
			}
			if math.IsInf(key, 0) || math.IsNaN(key) || math.IsInf(x[0], 0) || math.IsInf(x[1], 0) {
				return decided, byTangent, byNeighbour, fmt.Errorf("%v at site %v: key %v with extent %v was decided (tangent: %v, neighbour: %v)", q, s, key, x, tangent, neighbour)
			}
			ok, err := q.Matches(tp)
			if err != nil {
				return decided, byTangent, byNeighbour, err
			}
			if ok != (v == accept) {
				return decided, byTangent, byNeighbour, fmt.Errorf("%v at site %v of %v: key %v, extent %v, tangent bytes %v (column %d, neighbour %+d): rule says %v (tangent: %v, neighbour: %v), predicate %v (value %v)",
					q, s, slopes, key, x, ext.tan, rule.col, rule.next, v == accept, tangent, neighbour, ok, surfaceOf(tp, q))
			}
		}
	}
	return decided, byTangent, byNeighbour, nil
}

// sitesAround is the slope set of s and a neighbour either side of it, w
// times |a − s| away (w ≥ 2; 1 away where that does not leave s): a lies
// between s and one of them, routed to s — or, at w = 2 and a below s, to the
// lower site of the tie — with the other as its neighbour.
func sitesAround(s, a, w float64) []float64 {
	l := w * math.Abs(a-s)
	if s-l == s || s+l == s {
		l = 1
	}
	return []float64{s - l, s, s + l}
}

// TestKeyRuleLeavesNonFiniteToThePredicate: NaN and ±Inf, as key or as
// either end of the extent, never decide — on any side of any intercept, by
// the bracket or by the tangents at any own and neighbour byte, with the
// neighbour on either side or none, in either tree. A zero-width extent is
// finite: its bytes place nothing, and the tangents are the bracket — the
// own one on its side, the neighbour's on the other.
func TestKeyRuleLeavesNonFiniteToThePredicate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	bytes := []uint8{0, 1, 128, 255}
	for _, shift := range []float64{-2, 1e-9, 0.5} {
		for _, up := range []bool{true, false} {
			for _, b := range []float64{-1e9, 0, 1e9, inf, -inf} {
				for _, top := range []bool{true, false} {
					for _, next := range []int{-2, 0, 2} {
						rule := slopeRule(nil, b, 1e-6, shift, up)
						rule.top, rule.col, rule.next = top, 2, next
						for _, c := range []struct {
							k float64
							x [2]float64
						}{
							{nan, [2]float64{0, 1}}, {inf, [2]float64{0, 1}}, {-inf, [2]float64{0, 1}},
							{5, [2]float64{nan, 1}}, {5, [2]float64{0, nan}}, {5, [2]float64{nan, nan}},
							{5, [2]float64{-inf, 1}}, {5, [2]float64{0, inf}}, {5, noExtent},
							{inf, noExtent}, {nan, noExtent}, {inf, [2]float64{3, 3}}, {-inf, [2]float64{3, 3}},
						} {
							if v := rule.decide(c.k, c.x); v != evaluate {
								t.Errorf("shift %v, up %v, b %v: key %v extent %v decided (%v)", shift, up, b, c.k, c.x, v)
							}
							for _, q := range bytes {
								for _, qn := range bytes {
									row := []uint8{qn, qn, q, q, qn, qn}
									if v := rule.tangent(c.k, c.x, row); v != evaluate {
										t.Errorf("shift %v, up %v, top %v, b %v, neighbour %+d: key %v extent %v bytes %d, %d decided by a tangent (%v)", shift, up, top, b, next, c.k, c.x, q, qn, v)
									}
								}
							}
						}
						// Zero width: every byte is the extent's one x, and the
						// tangents decide what the bracket decides, an intercept
						// well away from the value.
						x := [2]float64{3, 3}
						for _, k := range []float64{b - 10, b + 10, -1e9, 1e9} {
							if math.IsInf(b, 0) || math.Abs(k-b) < 1 {
								continue
							}
							for _, q := range bytes {
								if xq, step := tangentX(q, x); xq != 3 || step != 0 {
									t.Fatalf("byte %d of extent %v places %v, step %v", q, x, xq, step)
								}
								v, want := rule.tangent(k, x, []uint8{q, q, q, q, q, q}), rule.decide(k, x)
								if next == 0 && (top && want == rule.ifBelow || !top && want == rule.ifAbove) {
									want = evaluate // the other side's bound: the neighbour's, and there is none
								}
								if v != want {
									t.Errorf("shift %v, up %v, top %v, b %v, neighbour %+d: key %v, zero-width extent, byte %d: tangents %v, bracket %v", shift, up, top, b, next, k, q, v, want)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestSlopeBoundSound is the seeded testing/quick twin of FuzzSlopeBound:
// over every shape, sites and query slopes near and far, and intercepts on
// and around the surface value at the query slope, whenever keyRule decides
// the predicate agrees.
func TestSlopeBoundSound(t *testing.T) {
	decided, undecided, byTangent, byNeighbour := 0, 0, 0, 0
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, tp := range shapes2(t, rng) {
			s := math.Tan((rng.Float64() - 0.5) * (math.Pi - 0.2))
			for _, a := range []float64{
				s + 3*geom.Eps, s - 1e-6, s + rng.Float64()*0.5, s - rng.Float64()*0.5,
				s + rng.NormFloat64()*20, math.Tan((rng.Float64() - 0.5) * (math.Pi - 0.02)),
			} {
				// One site in four has no neighbour; the others one either side,
				// from the strip's border (w = 2) to well past it.
				slopes := []float64{s}
				if rng.Intn(4) != 0 {
					slopes = sitesAround(s, a, 2+3*rng.Float64()*float64(rng.Intn(2)))
				}
				m := t2Margin(s, a)
				for _, q := range []constraint.Query{
					constraint.Query2(constraint.EXIST, a, 0, geom.GE),
					constraint.Query2(constraint.EXIST, a, 0, geom.LE),
				} {
					v := surfaceOf(tp, q)
					if math.IsInf(v, 0) {
						v = 0
					}
					w := math.Abs(a-s) * 10 // the bracket's order of magnitude
					for _, off := range []float64{0, geom.Eps, -geom.Eps, m, -m, 2 * m, -2 * m,
						w * rng.Float64(), -w * rng.Float64(), rng.NormFloat64() * 50} {
						n, nt, nn, err := slopeBoundHolds(tp, slopes, a, v+off)
						if err != nil {
							t.Errorf("seed %d: %v", seed, err)
							return false
						}
						decided += n
						undecided += 4 - n
						byTangent += nt
						byNeighbour += nn
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(20261003))}); err != nil {
		t.Fatal(err)
	}
	if decided == 0 || undecided == 0 || byTangent == 0 || byNeighbour == 0 {
		t.Fatalf("%d decided (%d by a tangent, %d of them the neighbour's), %d left to the predicate: the property is vacuous on one side", decided, byTangent, byNeighbour, undecided)
	}
	t.Logf("%d decided (%d by a tangent, %d of them the neighbour's), %d left to the predicate", decided, byTangent, byNeighbour, undecided)
}

// FuzzSlopeBound checks keyRule's soundness on arbitrary triangles with an
// optional ray — degenerate ones included: whenever the rule decides an
// entry from its key at site s and its x-extent, for a query at slope a and
// an intercept off away from the surface value there, the exact predicate
// agrees, and non-finite keys and extents are never decided — with s the one
// site, and with a neighbour either side of s whose strip border a is. A triangle
// outside the range the margin is a bound over must be refused by the index
// instead.
func FuzzSlopeBound(f *testing.F) {
	f.Add(0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.5, 0.7, 0.0)
	f.Add(-1.0, 2.0, 3.0, -4.0, 0.5, 0.5, 1.0, 1.0, -2.0, -1.0, 1e-9)
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 3.0, 2.5, -3.0)
	f.Add(2.0, 3.0, 2.0, 3.0, 2.0, 3.0, 0.0, 0.0, 0.0, 40.0, 100.0)
	f.Add(0.0, 10.0, 5e-10, 10-1e-10, -3.0, 2.0, 0.0, -1.0, -1.5, -1.2, 4e-9)
	f.Add(0.0, 0.0, 1e-300, 1.0, 1.0, 0.0, 1e-10, -1.0, 1.0, -1e6, 0.0)
	f.Add(0.0, 0.0, 2e6, 0.0, 0.0, 1.0, 0.0, 0.0, 0.5, 0.7, 0.0)
	// Points whose stored key is their value rounded 5e-7 down, resp. 4e-7
	// up — fifteen margins — queried 1e-9 off the site, where the bracket
	// has no width: the intercept 2e-7 inside the value decides only if the
	// leaf's rounding widens the rule. testdata's key-rounding-decides-bracket
	// is the same with a bracket of width 0.53: a triangle keyed at 1/6,
	// queried at 0.7 on its value.
	f.Add(0.0, 16+5e-7, 0.0, 16+5e-7, 0.0, 16+5e-7, 0.0, 0.0, 0.0, 1e-9, -2e-7)
	f.Add(0.0, 16-4e-7, 0.0, 16-4e-7, 0.0, 16-4e-7, 0.0, 0.0, 0.0, -1e-9, 2e-7)
	f.Fuzz(func(t *testing.T, x0, y0, x1, y1, x2, y2, rx, ry, s, a, off float64) {
		for _, v := range []float64{s, a, off} {
			if math.IsNaN(v) || math.Abs(v) > 1e6 {
				t.Skip("slope or offset outside the modeled range")
			}
		}
		var rays []geom.Point
		if rx != 0 || ry != 0 {
			rays = append(rays, geom.Point{rx, ry})
		}
		p, err := geom.FromVertices([]geom.Point{{x0, y0}, {x1, y1}, {x2, y2}}, rays)
		if err != nil {
			t.Skip(err)
		}
		tp := constraint.FromPolyhedron(p)
		if !tp.IsSatisfiable() {
			t.Skip("empty extension")
		}
		inRange := true
		for _, g := range append(append([]geom.Point(nil), p.Verts...), p.Rays...) {
			inRange = inRange && math.Abs(g[0]) <= geom.MaxCoord && math.Abs(g[1]) <= geom.MaxCoord
		}
		// What Insert, Build and Open return before they index anything.
		if err := checkRange(tp); inRange != (err == nil) || (err != nil && !errors.Is(err, ErrTupleRange)) {
			t.Fatalf("generators %v %v in range: %v; refused with: %v", p.Verts, p.Rays, inRange, err)
		}
		if !inRange {
			return
		}
		for _, q := range []constraint.Query{
			constraint.Query2(constraint.EXIST, a, 0, geom.GE),
			constraint.Query2(constraint.EXIST, a, 0, geom.LE),
		} {
			v := surfaceOf(tp, q)
			if math.IsInf(v, 0) {
				v = 0
			}
			for _, slopes := range [][]float64{{s}, sitesAround(s, a, 2)} {
				if _, _, _, err := slopeBoundHolds(tp, slopes, a, v+off); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}

// TestLeaningRayIsNeverDecided is why the table's extent is stricter than
// the support matchesVertical reads: a ray within Eps of the vertical leaves
// the tuple x-bounded to the support scan, yet beyond slopes of 1/Eps it
// fires — TOP is +Inf where the vertices alone would bracket it finite.
func TestLeaningRayIsNeverDecided(t *testing.T) {
	p, err := geom.FromVertices([]geom.Point{{0, 0}, {1, 0}, {0, 1}}, []geom.Point{{1e-10, -1}})
	if err != nil {
		t.Fatal(err)
	}
	tp := constraint.FromPolyhedron(p)
	sup, err := tp.Support([]float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	inf, err := tp.Support([]float64{-1, 0})
	if err != nil || sup != 1 || -inf != 0 {
		t.Fatalf("x support = (%v, %v, %v), want the vertices' (1, 0)", sup, -inf, err)
	}
	if x := xExtent(tp); x != [2]float64{0, math.Inf(1)} {
		t.Fatalf("xExtent = %v, want [0 +Inf]", x)
	}
	rel := constraint.NewRelation(2)
	if _, err := rel.Insert(tp); err != nil {
		t.Fatal(err)
	}
	ix, err := Build(rel, Options{Slopes: []float64{-1, 0, 1}, Technique: T2})
	if err != nil {
		t.Fatal(err)
	}
	q := constraint.Query2(constraint.EXIST, -2e10, 1e11, geom.GE)
	got, err := ix.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := q.Eval(rel); len(want) != 1 || !sameIDs(got.IDs, want) || got.Stats.Decided != 0 {
		t.Fatalf("%v: got %v (%+v), want %v undecided", q, got.IDs, got.Stats, want)
	}
}

// TestSiteRoundingIsNotDecided is why the margin grows with the distance to
// the site and not with the query slope alone: the point's key at site 1000
// is a difference of magnitude 1e9, rounded to 6e-8, and the bracket at slope
// 0 — where the value is the point's y, exactly — inherits that error. With
// μ = Eps + δ(0) = 3.3e-8 the rule accepts the point for an intercept 1e-8
// above its value, which the predicate rejects.
func TestSiteRoundingIsNotDecided(t *testing.T) {
	const x, y = 999000.09589999996, 123.46300000000001
	p, err := geom.FromVertices([]geom.Point{{x, y}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tp := constraint.FromPolyhedron(p)
	if bracket := mustTop(t, tp, 1000) + 1000*x; !(bracket-y > 5e-8) {
		t.Fatalf("bracket %v at slope 0 from the key at 1000, value %v: want 5e-8 of rounding between them", bracket, y)
	}
	rel := constraint.NewRelation(2)
	if _, err := rel.Insert(tp); err != nil {
		t.Fatal(err)
	}
	ix, err := Build(rel, Options{Slopes: []float64{1000, 2000, 3000}, Technique: T2})
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []float64{1e-8, -1e-8, 4e-8, -4e-8} {
		for _, op := range []geom.Op{geom.GE, geom.LE} {
			q := constraint.Query2(constraint.EXIST, 0, y+off, op)
			got, err := ix.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := q.Eval(rel); got.Stats.Path != "t2(outside)" || !sameIDs(got.IDs, want) {
				t.Fatalf("%v [%s]: got %v, the scan %v", q, got.Stats.Path, got.IDs, want)
			}
		}
	}
}

// TestT2KeyBelowValueIsNotCutOff: alignedVertices' key at site −1.5 is
// 10 + 1.3e-9 and its value at slope −2 is 10 + 1.8e-9, so a query the
// predicate accepts at that value plus Eps starts its first sweep at or past
// the tuple's key, and when a leaf boundary falls between the two (some
// filler count puts one there) past its leaf. The tuple is reached through
// its routing key, TOP's max over the half strip [−2.25, −1.5]: the kernel at
// −2.25, at or above its value at every slope of the half strip, so the
// routing leaf is one the first sweep visits and its handicap takes the
// second sweep down to the key. The envelope's routing key merged the three
// aligned dual lines and read 10, below the value; with it, only T2's margin
// kept the routing leaf in the first sweep.
func TestT2KeyBelowValueIsNotCutOff(t *testing.T) {
	point := func(y float64) *constraint.Tuple {
		p, err := geom.FromVertices([]geom.Point{{0, y}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return constraint.FromPolyhedron(p)
	}
	const a = -2.0
	slopes := []float64{-1.5, -0.25, 0.5, 2}
	aligned := alignedVertices(t)
	top := surfaceOf(aligned, constraint.Query2(constraint.EXIST, a, 0, geom.GE))
	lo, hi := newSlopeSet(slopes).stripBounds(0)
	route, _, err := aligned.StripExtrema(lo, slopes[0], hi)
	if err != nil {
		t.Fatal(err)
	}
	if key := mustTop(t, aligned, slopes[0]); !(key < top && route.MaxPrev >= top) {
		t.Fatalf("key %v at the site, routing key %v over the half strip, value %v at the query slope: want the key below the value and the routing key not", key, route.MaxPrev, top)
	}
	for fillers := 40; fillers <= 120; fillers++ {
		rel := constraint.NewRelation(2)
		ts := []*constraint.Tuple{alignedVertices(t)}
		for i := 0; i < fillers; i++ {
			ts = append(ts, point(float64(i)*0.1)) // keys below the tuple's
		}
		for j := 0; j < 100; j++ {
			ts = append(ts, point(10+1.5e-9+float64(j))) // keys between its key and its value, and above
		}
		for _, tp := range ts {
			if _, err := rel.Insert(tp); err != nil {
				t.Fatal(err)
			}
		}
		ix, err := Build(rel, Options{Slopes: slopes, Technique: T2})
		if err != nil {
			t.Fatal(err)
		}
		q := constraint.Query2(constraint.EXIST, a, top+geom.Eps, geom.GE)
		got, err := ix.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := q.Eval(rel); got.Stats.Path != "t2" || !sameIDs(got.IDs, want) {
			t.Fatalf("%d fillers, %v [%s]: got %d tuples, the scan %d", fillers, q, got.Stats.Path, len(got.IDs), len(want))
		}
	}
}

// TestT1KeyBelowValueIsNotCutOff is the T1 twin: both app-queries of a query
// at slope −1 pass through the pivot (0, b) and run at sites −1.5 and −0.25,
// where alignedVertices' envelope reads 10 while the predicate accepts the
// tuple up to b = 10 + 1.8e-9. With envelope keys, app-queries filtered at
// bare Eps dropped it from both sweeps wherever the leaf boundaries fell;
// the keys are the app-query predicate's own operands now, and its Eps is
// all the filter needs.
func TestT1KeyBelowValueIsNotCutOff(t *testing.T) {
	point := func(y float64) *constraint.Tuple {
		p, err := geom.FromVertices([]geom.Point{{0, y}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return constraint.FromPolyhedron(p)
	}
	const a = -1.0
	slopes := []float64{-1.5, -0.25, 0.5, 2}
	top := surfaceOf(alignedVertices(t), constraint.Query2(constraint.EXIST, a, 0, geom.GE))
	for _, s := range slopes[:2] {
		if env := alignedVertices(t).TopEnv().Eval(s); !(env < top) {
			t.Fatalf("envelope %v at site %v, value %v at the query slope: want the envelope below", env, s, top)
		}
	}
	if key := mustTop(t, alignedVertices(t), slopes[0]); !(key >= top) {
		t.Fatalf("key %v at site %v, value %v at the query slope: want the first app-query to keep the key", key, slopes[0], top)
	}
	for fillers := 40; fillers <= 120; fillers++ {
		rel := constraint.NewRelation(2)
		ts := []*constraint.Tuple{alignedVertices(t)}
		for i := 0; i < fillers; i++ {
			ts = append(ts, point(float64(i)*0.1)) // keys below the tuple's
		}
		for j := 0; j < 100; j++ {
			ts = append(ts, point(10+1.5e-9+float64(j))) // keys between its key and its value, and above
		}
		for _, tp := range ts {
			if _, err := rel.Insert(tp); err != nil {
				t.Fatal(err)
			}
		}
		ix, err := Build(rel, Options{Slopes: slopes, Technique: T1})
		if err != nil {
			t.Fatal(err)
		}
		q := constraint.Query2(constraint.EXIST, a, top+geom.Eps, geom.GE)
		got, err := ix.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := q.Eval(rel); got.Stats.Path != "t1" || !sameIDs(got.IDs, want) {
			t.Fatalf("%d fillers, %v [%s]: got %d tuples, the scan %d", fillers, q, got.Stats.Path, len(got.IDs), len(want))
		}
	}
}

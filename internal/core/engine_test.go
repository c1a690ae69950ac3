package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dualcdb/internal/btree"
	"dualcdb/internal/constraint"
	"dualcdb/internal/geom"
	"dualcdb/internal/pagestore"
)

// engineCase is one geometry the whole-engine tests (fault atomicity, MVCC
// stress, snapshot stability) run the single engine over.
type engineCase struct {
	name  string
	dim   int
	tuple func(rng *rand.Rand, unboundedOK bool) *constraint.Tuple
	query func(rng *rand.Rand) constraint.Query
	// build bulk-loads rel; a non-nil store backs the index's pool (fault
	// injection).
	build func(rel *constraint.Relation, store pagestore.Store) (*Index, error)
	// scan is a query this geometry answers on the "scan" path (nil Slope:
	// none — the slope geometry covers every slope with T1).
	scan constraint.Query
}

var engineCases = []engineCase{
	{
		name: "2d-slopes", dim: 2, tuple: randTuple, query: randQuery,
		build: func(rel *constraint.Relation, store pagestore.Store) (*Index, error) {
			return Build(rel, Options{Slopes: EquiangularSlopes(3), Technique: T2, Store: store, PoolPages: 1 << 12})
		},
	},
	{
		name: "2d-slopes-t1", dim: 2, tuple: randTuple, query: randQuery,
		build: func(rel *constraint.Relation, store pagestore.Store) (*Index, error) {
			return Build(rel, Options{Slopes: EquiangularSlopes(3), Technique: T1, Store: store, PoolPages: 1 << 12})
		},
	},
	{
		name: "3d-sites", dim: 3, tuple: randTuple3, query: randQuery3,
		build: func(rel *constraint.Relation, store pagestore.Store) (*Index, error) {
			return BuildD(rel, OptionsD{Sites: LatticeSites(2, 3, 1.5), Store: store, PoolPages: 1 << 12})
		},
		scan: constraint.NewQuery(constraint.EXIST, []float64{50, -50}, 0, geom.GE),
	},
}

// buildCase fills a relation with n random bounded tuples of the case's
// dimension and indexes it.
func buildCase(t *testing.T, c engineCase, rng *rand.Rand, n int, store pagestore.Store) (*constraint.Relation, *Index) {
	t.Helper()
	rel := constraint.NewRelation(c.dim)
	for i := 0; i < n; i++ {
		if _, err := rel.Insert(c.tuple(rng, false)); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := c.build(rel, store)
	if err != nil {
		t.Fatal(err)
	}
	return rel, ix
}

// TestBuildJustAboveOneLeafIsLegal builds every relation size around one
// leaf's bulk load (109 entries at 1 KiB pages, four handicap slots and the
// 0.9 fill factor; 111 with two slots): the trees must pass CheckInvariants,
// where BulkLoad used to leave an underfull first leaf.
func TestBuildJustAboveOneLeafIsLegal(t *testing.T) {
	for _, c := range engineCases {
		t.Run(c.name, func(t *testing.T) {
			_, empty := buildCase(t, c, nil, 0, nil)
			perLeaf := int(float64(empty.trees[0].LeafCapacity()) * btree.DefaultFillFactor)
			for n := perLeaf - 10; n <= perLeaf+10; n++ {
				_, ix := buildCase(t, c, rand.New(rand.NewSource(int64(n))), n, nil)
				if err := ix.CheckInvariants(); err != nil {
					t.Fatalf("%d tuples: %v", n, err)
				}
			}
		})
	}
}

// TestEngineMatchesScanAcrossGeometries is the whole-engine differential
// test: one random 2-D relation (bounded and unbounded tuples) indexed
// through the slope geometry (T2 and T1) and through sites in E¹, plus a
// 3-D relation through lattice sites, must answer ALL/EXIST × ≥/≤ exactly
// as the naive Proposition 2.2 scan does — at slopes in S, inside the
// strips/cells and outside the box. Every execution path has to come up,
// and the restricted path may not produce a single false hit (Theorem 3.1).
func TestEngineMatchesScanAcrossGeometries(t *testing.T) {
	paths := map[string]int{}
	slopes := []float64{-1.5, -0.25, 0.5, 2}
	sites1 := make([]geom.Point, len(slopes))
	for i, a := range slopes {
		sites1[i] = geom.Point{a}
	}
	sites2 := LatticeSites(2, 3, 1.5)

	check := func(name string, rel *constraint.Relation, ix *Index, slope []float64, b float64) bool {
		for _, kind := range []constraint.QueryKind{constraint.ALL, constraint.EXIST} {
			for _, op := range []geom.Op{geom.GE, geom.LE} {
				q := constraint.NewQuery(kind, slope, b, op)
				want, err := q.Eval(rel)
				if err != nil {
					t.Errorf("%s %v: oracle: %v", name, q, err)
					return false
				}
				got, err := ix.Query(q)
				if err != nil {
					t.Errorf("%s %v: %v", name, q, err)
					return false
				}
				paths[got.Stats.Path]++
				if !sameIDs(got.IDs, want) {
					t.Errorf("%s %v [path %s]: got %v, want %v", name, q, got.Stats.Path, got.IDs, want)
					return false
				}
				if got.Stats.Path == "restricted" && got.Stats.FalseHits != 0 {
					t.Errorf("%s %v: %d false hits on the restricted path", name, q, got.Stats.FalseHits)
					return false
				}
			}
		}
		return true
	}

	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rel2, rel3 := constraint.NewRelation(2), constraint.NewRelation(3)
		for i := 0; i < 60; i++ {
			if _, err := rel2.Insert(randTuple(rng, true)); err != nil {
				t.Fatal(err)
			}
			if _, err := rel3.Insert(randTuple3(rng, true)); err != nil {
				t.Fatal(err)
			}
		}
		twoD := map[string]*Index{}
		var err error
		if twoD["slopes/T2"], err = Build(rel2, Options{Slopes: slopes, Technique: T2}); err != nil {
			t.Fatal(err)
		}
		if twoD["slopes/T1"], err = Build(rel2, Options{Slopes: slopes, Technique: T1}); err != nil {
			t.Fatal(err)
		}
		if twoD["sites-1d"], err = BuildD(rel2, OptionsD{Sites: sites1}); err != nil {
			t.Fatal(err)
		}
		ix3, err := BuildD(rel3, OptionsD{Sites: sites2})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			b := rng.Float64()*120 - 60
			inS := slopes[rng.Intn(len(slopes))]
			for _, a := range []float64{
				inS,                       // a member of S
				inS + rng.Float64()*0.3,   // inside its strip / cell
				(rng.Float64() - 0.5) * 6, // anywhere in the covered range
				40 + rng.Float64()*10,     // outside every strip and the box
				-40 - rng.Float64()*10,
			} {
				for name, ix := range twoD {
					if !check(name, rel2, ix, []float64{a}, b) {
						return false
					}
				}
			}
			site := sites2[rng.Intn(len(sites2))]
			for _, s := range [][]float64{
				{site[0], site[1]},
				{site[0] + rng.Float64()*0.4, site[1] - rng.Float64()*0.4},
				{rng.NormFloat64(), rng.NormFloat64()},
				{30 + rng.Float64(), -30},
			} {
				if !check("sites-2d", rel3, ix3, s, b*0.6) {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(20260927))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
	t.Logf("paths exercised: %v", paths)
	for _, p := range []string{"restricted", "t2", "t2(outside)", "t1", "scan"} {
		if paths[p] == 0 {
			t.Errorf("path %q never exercised (saw %v)", p, paths)
		}
	}
}

// steepCone is {y ≥ 0, y ≤ 1000x}: apex (0,0), rays (1,0) and ≈(1e-3, 1).
// At slope 999.9999995 the steep ray gains 5e-10 per unit — under the
// support scan's Eps, so TOP^P is the apex's 0 — while the envelope's
// domain already ended Eps before the critical slope 1000 and reads +Inf.
func steepCone(t testing.TB) *constraint.Tuple {
	t.Helper()
	tp, err := constraint.NewTuple(2, []geom.HalfSpace{
		{A: []float64{0, -1}, C: 0, Op: geom.LE},
		{A: []float64{-1000, 1}, C: 0, Op: geom.LE},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// alignedVertices is the region under three vertices whose x differ by at
// most Eps: upperHullLines merges their dual lines into the one with the
// largest intercept, so at negative slopes the envelope reads up to
// 2·Eps·|a| below the support scan (the predicate, and the tree key).
func alignedVertices(t testing.TB) *constraint.Tuple {
	t.Helper()
	p, err := geom.FromVertices(
		[]geom.Point{{0, 10}, {5e-10, 10 - 1e-10}, {1e-9, 10 - 2e-10}, {-3, 2}},
		[]geom.Point{{0, -1}})
	if err != nil {
		t.Fatal(err)
	}
	return constraint.FromPolyhedron(p)
}

// TestRestrictedBoundaryMatchesScan pins Theorem 3.1 at its edges. For
// every site slope × ALL/EXIST × ≥/≤ it queries intercepts on, one tolerance
// and one former band width δ either side of stored keys, each also one ulp
// further in and out, over relations that hold the two shapes whose envelope
// and support scan disagree (steepCone — at its own steep site too —
// and alignedVertices), unbounded tuples with keys ±Inf, and a 3-D lattice
// index; and once more through a snapshot pinned before a delete. Answers
// must be the naive scan's, settled on the keys alone: every retrieved entry
// is a result, none is a false hit, none is evaluated.
func TestRestrictedBoundaryMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(20261001))
	const steep = 999.9999995
	slopes := []float64{-1.5, -0.25, 0.5, 2, steep}
	rel2, rel3 := constraint.NewRelation(2), constraint.NewRelation(3)
	insert := func(rel *constraint.Relation, tp *constraint.Tuple) constraint.TupleID {
		id, err := rel.Insert(tp)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	cone := steepCone(t)
	insert(rel2, cone)
	insert(rel2, alignedVertices(t))
	for i := 0; i < 40; i++ {
		insert(rel2, randTuple(rng, true))
		insert(rel3, randTuple3(rng, true))
	}
	if env, top := cone.TopEnv().Eval(steep), mustTop(t, cone, steep); !math.IsInf(env, 1) || top != 0 {
		t.Fatalf("steep cone at %v: envelope %v, TOP %v; want +Inf and 0", steep, env, top)
	}

	ix2, err := Build(rel2, Options{Slopes: slopes, Technique: T2})
	if err != nil {
		t.Fatal(err)
	}
	sites3 := LatticeSites(2, 3, 1.5)
	ix3, err := BuildD(rel3, OptionsD{Sites: sites3})
	if err != nil {
		t.Fatal(err)
	}

	// tuplesOf freezes a relation's contents, the oracle for a snapshot.
	tuplesOf := func(rel *constraint.Relation) (ts []*constraint.Tuple) {
		rel.Scan(func(tp *constraint.Tuple) bool {
			ts = append(ts, tp)
			return true
		})
		return ts
	}
	queries := 0
	check := func(name string, run func(constraint.Query) (Result, error), ts []*constraint.Tuple, q constraint.Query) {
		t.Helper()
		queries++
		got, err := run(q)
		if err != nil {
			t.Fatalf("%s %v: %v", name, q, err)
		}
		if got.Stats.Path != "restricted" {
			t.Fatalf("%s %v: path %q", name, q, got.Stats.Path)
		}
		var want []constraint.TupleID
		for _, tp := range ts {
			ok, err := q.Matches(tp)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				want = append(want, tp.ID())
			}
		}
		if !sameIDs(got.IDs, want) {
			t.Fatalf("%s %v: got %v, want %v", name, q, got.IDs, want)
		}
		if st := got.Stats; st.Results != len(want) || !onSiteSettled(st, atRoundedBound(q, ts)) {
			t.Fatalf("%s %v: %+v; want %d results, every entry decided on its key but those at the rounded bound", name, q, st, len(want))
		}
	}
	// around lists the intercepts at every edge the path has, or had, near key.
	around := func(key, delta float64) []float64 {
		bs := []float64{key}
		for _, off := range []float64{geom.Eps, delta, geom.Eps + delta} {
			for _, b := range []float64{key - off, key + off} {
				bs = append(bs, b, math.Nextafter(b, math.Inf(-1)), math.Nextafter(b, math.Inf(1)))
			}
		}
		return bs
	}
	sweepSite := func(name string, ix *Index, run func(constraint.Query) (Result, error), ts []*constraint.Tuple, site int, slope []float64, sampled []*constraint.Tuple) {
		for _, kind := range []constraint.QueryKind{constraint.ALL, constraint.EXIST} {
			for _, op := range []geom.Op{geom.GE, geom.LE} {
				q := constraint.NewQuery(kind, slope, 0, op)
				for _, tp := range sampled {
					key, bot := ix.keys(tp, site)
					if !q.UsesTop() {
						key = bot
					}
					if math.IsInf(key, 0) {
						key = 0 // any intercept: an infinite key is settled like a finite one
					}
					for _, b := range around(key, geom.EnvelopeSlack(slope[0])) {
						q.Intercept = b
						check(name, run, ts, q)
					}
				}
			}
		}
	}

	ts2, ts3 := tuplesOf(rel2), tuplesOf(rel3)
	for i, a := range slopes {
		sweepSite("2-D", ix2, ix2.Query, ts2, i, []float64{a}, ts2[:12])
	}
	for i, s := range sites3 {
		sweepSite("3-D", ix3, ix3.Query, ts3, i, s, ts3[:6])
	}
	// The two named cases, and an infinite intercept either way.
	check("steep cone", ix2.Query, ts2, constraint.Query2(constraint.EXIST, steep, 5, geom.GE))
	check("aligned vertices", ix2.Query, ts2, constraint.Query2(constraint.EXIST, -1.5, 10+geom.Eps+2e-10, geom.GE))
	for _, b := range []float64{math.Inf(-1), math.Inf(1)} {
		for _, op := range []geom.Op{geom.GE, geom.LE} {
			check("infinite intercept", ix2.Query, ts2, constraint.Query2(constraint.EXIST, 0.5, b, op))
			check("infinite intercept", ix2.Query, ts2, constraint.Query2(constraint.ALL, 0.5, b, op))
		}
	}

	// A slope within Eps of a site, but not the site, is an ordinary T2
	// query: its keys were computed Eps/2 away.
	for i := 0; i < 20; i++ {
		q := constraint.Query2(constraint.EXIST, slopes[2]+geom.Eps/2, rng.Float64()*120-60, geom.GE)
		res, err := ix2.Query(q)
		want, _ := q.Eval(rel2)
		if err != nil || res.Stats.Path != "t2" || !sameIDs(res.IDs, want) {
			t.Fatalf("%v: got %v (path %s, err %v), want %v", q, res.IDs, res.Stats.Path, err, want)
		}
	}

	// A snapshot pinned before a delete still answers with the deleted
	// tuple, on its key.
	snap := ix2.Snapshot()
	defer snap.Release()
	victim := ts2[5]
	if err := ix2.Delete(victim.ID()); err != nil {
		t.Fatal(err)
	}
	sweepSite("snapshot", ix2, snap.Query, ts2, 1, []float64{slopes[1]}, []*constraint.Tuple{victim})
	sweepSite("after delete", ix2, ix2.Query, tuplesOf(rel2), 1, []float64{slopes[1]}, []*constraint.Tuple{victim})
	t.Logf("%d boundary queries", queries)
}

// TestSteepSiteMatchesScan: a site within Eps/r_x of a ray's critical slope,
// where the merged-line envelope already reads +Inf and the support scan
// still reads the apex. The stored key is the scan's, so a downward sweep
// meets the cone where the predicate accepts it.
func TestSteepSiteMatchesScan(t *testing.T) {
	const steep = 999.9999995
	rel := constraint.NewRelation(2)
	if _, err := rel.Insert(steepCone(t)); err != nil {
		t.Fatal(err)
	}
	for _, tech := range []Technique{T2, T1, RestrictedOnly} {
		ix, err := Build(rel, Options{Slopes: []float64{-1.5, 0.5, steep}, Technique: tech})
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []constraint.QueryKind{constraint.ALL, constraint.EXIST} {
			for _, op := range []geom.Op{geom.GE, geom.LE} {
				for _, b := range []float64{5, -5, 0, geom.Eps, -geom.Eps, math.Nextafter(geom.Eps, 1), math.Nextafter(-geom.Eps, -1)} {
					q := constraint.Query2(kind, steep, b, op)
					got, err := ix.Query(q)
					if err != nil {
						t.Fatal(err)
					}
					want, _ := q.Eval(rel)
					if st := got.Stats; !sameIDs(got.IDs, want) || !onSiteSettled(st, atRoundedBound(q, []*constraint.Tuple{steepCone(t)})) {
						t.Fatalf("%v, %v: got %v (%+v), the scan %v", tech, q, got.IDs, st, want)
					}
				}
			}
		}
		q := constraint.Query2(constraint.ALL, steep, 5, geom.LE) // the issue's query
		if got, _ := ix.Query(q); len(got.IDs) != 1 {
			t.Fatalf("%v, %v: got %v, want the cone", tech, q, got.IDs)
		}
	}
}

// TestNearSiteSlopeMatchesScan: a slope within Eps of a site is not the
// site. Eps/2 of slope moves the value of a triangle 9e5 out by 4.5e-4, so
// it is served as any other slope of the strip — through the x-extent
// bracket — and refused where only the stored slopes are answered.
func TestNearSiteSlopeMatchesScan(t *testing.T) {
	p, err := geom.FromVertices([]geom.Point{{9e5, 0}, {9e5 + 1, 0}, {9e5, 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tri := constraint.FromPolyhedron(p)
	rel := constraint.NewRelation(2)
	if _, err := rel.Insert(tri); err != nil {
		t.Fatal(err)
	}
	slopes := []float64{-1.5, 0.5, 2}
	for tech, path := range map[Technique]string{T2: "t2", T1: "t1"} {
		ix, err := Build(rel, Options{Slopes: slopes, Technique: tech})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range []float64{0.5 + geom.Eps/2, 0.5 - geom.Eps/2, math.Nextafter(0.5, 1), math.Nextafter(0.5, 0)} {
			top := mustTop(t, tri, a)
			for _, kind := range []constraint.QueryKind{constraint.ALL, constraint.EXIST} {
				for _, op := range []geom.Op{geom.GE, geom.LE} {
					q := constraint.Query2(kind, a, 0, op)
					v, _ := q.SurfaceValue(tri)
					for _, b := range []float64{v, v - geom.Eps, v + geom.Eps, v - 2*geom.Eps, v + 2*geom.Eps, v - 1e-4, v + 1e-4} {
						q.Intercept = b
						got, err := ix.Query(q)
						if err != nil {
							t.Fatal(err)
						}
						if want, _ := q.Eval(rel); !sameIDs(got.IDs, want) || got.Stats.Path != path {
							t.Fatalf("%v, %v [%s]: got %v, the scan %v (TOP %v)", tech, q, got.Stats.Path, got.IDs, want, top)
						}
					}
				}
			}
		}
	}
	ix, err := Build(rel, Options{Slopes: slopes, Technique: RestrictedOnly})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Query(constraint.Query2(constraint.ALL, 0.5+geom.Eps/2, 0, geom.LE)); err == nil {
		t.Fatal("restricted-only answered a slope that is not in S")
	}
	if _, err := ix.Query(constraint.Query2(constraint.ALL, 0.5, 0, geom.LE)); err != nil {
		t.Fatal(err)
	}
}

func mustTop(t *testing.T, tp *constraint.Tuple, a float64) float64 {
	t.Helper()
	v, err := tp.Top([]float64{a})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

package core

import (
	"math/rand"
	"testing"
	"testing/quick"

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
		name: "3d-sites", dim: 3, tuple: randTuple3, query: randQuery3,
		build: func(rel *constraint.Relation, store pagestore.Store) (*Index, error) {
			opt := OptionsD{Sites: LatticeSites(2, 3, 1.5), PoolPages: 1 << 12}
			if store != nil {
				opt.Pool = pagestore.NewPool(store, 1<<12)
			}
			return BuildD(rel, opt)
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
// leaf's bulk load (75 entries at 1 KiB pages and the 0.9 fill factor,
// fewer per leaf with more handicap slots): the trees must pass
// CheckInvariants, where BulkLoad used to leave an underfull first leaf.
func TestBuildJustAboveOneLeafIsLegal(t *testing.T) {
	for _, c := range engineCases {
		t.Run(c.name, func(t *testing.T) {
			for n := 70; n <= 90; n++ {
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
	for _, p := range []string{"restricted", "t2", "t1", "t1(fallback)", "scan"} {
		if paths[p] == 0 {
			t.Errorf("path %q never exercised (saw %v)", p, paths)
		}
	}
}

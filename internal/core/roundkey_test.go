package core

import (
	"math"
	"testing"

	"dualcdb/internal/btree"
	"dualcdb/internal/constraint"
	"dualcdb/internal/geom"
)

// TestFloat32KeyBoundary pins the engine at the float32 rounding of its tree
// keys. At one value K — a float32 with a spacing of 1.9e-6 above and 9.5e-7
// below, far wider than Eps and T2's margin — it indexes points whose
// float64 values differ but whose stored keys are K or one float32 ulp
// either side of it, twelve of each value, so the run of one stored key
// spans leaves and its entries' values interleave by id. Every path then
// answers ALL/EXIST × ≥/≤ at intercepts that put the rounded bound on K and
// on its neighbours: the restricted path (which may evaluate only the
// entries whose stored key equals the rounded bound), T2 in a strip — a
// shift of 1e-9, where the rule's bracket is the rounding alone — and
// outside every strip, T1, and a 3-D site set; vertical selections at the
// same intercepts scan. Answers must be the scan's and no reference may
// come twice.
func TestFloat32KeyBoundary(t *testing.T) {
	const K = 16.0
	lo32 := float64(math.Nextafter32(K, 0))   // K − 9.5e-7
	hi32 := float64(math.Nextafter32(K, 100)) // K + 1.9e-6
	var values []float64
	for j := -13; j <= 27; j++ {
		values = append(values, K+float64(j)*1e-7)
	}
	stored := map[float64]int{}
	for _, v := range values {
		stored[btree.RoundKey(v)]++
	}
	if stored[lo32] == 0 || stored[K] == 0 || stored[hi32] == 0 || len(stored) != 3 {
		t.Fatalf("values round to %v; want K = %v and its two float32 neighbours", stored, K)
	}

	// bounds are the values the predicate's bound b ∓ Eps is aimed at: every
	// point's value, the three stored keys and the midpoints between them.
	bounds := append([]float64{K, lo32, hi32, (lo32 + K) / 2, (K + hi32) / 2}, values...)
	intercepts := func(up bool) []float64 {
		var bs []float64
		for _, v := range bounds {
			b := v + geom.Eps // b − Eps = v for a ≥ selection
			if !up {
				b = v - geom.Eps
			}
			bs = append(bs, b, math.Nextafter(b, math.Inf(-1)), math.Nextafter(b, math.Inf(1)))
		}
		return bs
	}
	type shape struct {
		kind constraint.QueryKind
		op   geom.Op
	}
	var shapes []shape
	for _, kind := range []constraint.QueryKind{constraint.ALL, constraint.EXIST} {
		for _, op := range []geom.Op{geom.GE, geom.LE} {
			shapes = append(shapes, shape{kind, op})
		}
	}
	// run queries one slope vector at every shape and intercept on ix, which
	// indexes ts, and checks every answer; it returns the entries the
	// restricted path evaluated and the entries T2 decided on their key.
	run := func(name string, ix *Index, rel *constraint.Relation, ts []*constraint.Tuple, slope []float64, path string) (evaluated, decided int) {
		t.Helper()
		for _, sh := range shapes {
			q := constraint.NewQuery(sh.kind, slope, 0, sh.op)
			for _, b := range intercepts(q.SweepsUp()) {
				q.Intercept = b
				got, err := ix.Query(q)
				if err != nil {
					t.Fatalf("%s %v: %v", name, q, err)
				}
				want, err := q.Eval(rel)
				if err != nil {
					t.Fatal(err)
				}
				st := got.Stats
				if st.Path != path || !sameIDs(got.IDs, want) {
					t.Fatalf("%s %v [%s, want %s]: got %v, the scan %v", name, q, st.Path, path, got.IDs, want)
				}
				if (st.Duplicates != 0 && path != "t1") || st.Candidates-st.Duplicates-st.Decided != st.FalseHits+st.Results-st.Sure {
					t.Fatalf("%s %v: accounting %+v", name, q, st)
				}
				switch path {
				case "restricted":
					if !onSiteSettled(st, atRoundedBound(q, ts)) {
						t.Fatalf("%s %v: %+v with %d stored keys at the rounded bound", name, q, st, atRoundedBound(q, ts))
					}
					evaluated += st.Candidates - st.Decided
				case "t2", "t2(outside)":
					if st.Candidates > ix.Len() {
						t.Fatalf("%s %v: %d candidates from a tree of %d", name, q, st.Candidates, ix.Len())
					}
				}
				decided += st.Decided
			}
		}
		return evaluated, decided
	}

	// E²: points (0, v) — value v at every slope, so every site's key is
	// RoundKey(v) — and points (v, 0), whose x is v: a vertical bound's value.
	rel := constraint.NewRelation(2)
	for copies := 0; copies < 12; copies++ {
		for _, v := range values {
			for _, p := range []geom.Point{{0, v}, {v, 0}} {
				if _, err := rel.Insert(boxTuple(t, p, p)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	var ts []*constraint.Tuple
	rel.Scan(func(tp *constraint.Tuple) bool {
		ts = append(ts, tp)
		return true
	})
	slopes := []float64{-1, 0, 1}
	ix, err := Build(rel, Options{Slopes: slopes, Technique: T2})
	if err != nil {
		t.Fatal(err)
	}
	if h := ix.trees[2].Height(); h < 2 || stored[K]*12 <= ix.trees[2].LeafCapacity() {
		t.Fatalf("height %d, %d entries stored at K: the run of one stored key must span leaves", h, stored[K]*12)
	}
	evaluated, _ := run("restricted", ix, rel, ts, []float64{0}, "restricted")
	if evaluated == 0 {
		t.Fatal("no restricted query met an entry at the rounded bound")
	}
	if _, decided := run("t2 in a strip", ix, rel, ts, []float64{1e-9}, "t2"); decided == 0 {
		t.Fatal("T2 decided nothing in the strip")
	}
	run("t2 in a strip", ix, rel, ts, []float64{0.3}, "t2")
	run("t2 outside", ix, rel, ts, []float64{50}, "t2(outside)")

	t1, err := Build(rel, Options{Slopes: slopes, Technique: T1})
	if err != nil {
		t.Fatal(err)
	}
	run("t1", t1, rel, ts, []float64{1e-9}, "t1")
	run("t1", t1, rel, ts, []float64{50}, "t1")

	for _, sh := range shapes {
		for _, c := range intercepts(sh.op == geom.GE) {
			got, err := ix.QueryVertical(sh.kind, sh.op, c)
			if err != nil {
				t.Fatal(err)
			}
			want, err := EvalVertical(sh.kind, sh.op, c, rel)
			if err != nil {
				t.Fatal(err)
			}
			if st := got.Stats; st.Path != "scan" || !sameIDs(got.IDs, want) || st.Duplicates != 0 {
				t.Fatalf("vertical %v(x %v %v) [%s]: got %v, the scan %v", sh.kind, sh.op, c, st.Path, got.IDs, want)
			}
		}
	}

	// E³: points (0, 0, v) over lattice sites — the value v at every slope
	// vector, so every site's key is RoundKey(v) here too.
	rel3 := constraint.NewRelation(3)
	for copies := 0; copies < 12; copies++ {
		for _, v := range values {
			p := geom.Point{0, 0, v}
			if _, err := rel3.Insert(boxTuple(t, p, p)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var ts3 []*constraint.Tuple
	rel3.Scan(func(tp *constraint.Tuple) bool {
		ts3 = append(ts3, tp)
		return true
	})
	sites := LatticeSites(2, 3, 1.5)
	ix3, err := BuildD(rel3, OptionsD{Sites: sites})
	if err != nil {
		t.Fatal(err)
	}
	if evaluated, _ := run("3-D restricted", ix3, rel3, ts3, sites[4], "restricted"); evaluated == 0 {
		t.Fatal("no 3-D restricted query met an entry at the rounded bound")
	}
	run("3-D t2", ix3, rel3, ts3, []float64{sites[4][0] + 1e-9, sites[4][1] - 0.2}, "t2")
	run("3-D scan", ix3, rel3, ts3, []float64{50, -50}, "scan")
}

package core

import (
	"math"
	"math/rand"
	"testing"

	"dualcdb/internal/constraint"
	"dualcdb/internal/geom"
)

// TestLineIndexMatchesGroundTruth: the interval-tree realization must
// agree with the exhaustive interval test and with the dual index's
// QueryLine at in-set slopes.
func TestLineIndexMatchesGroundTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(701))
	rel, ix := buildRandomIndex(t, rng, 250, Options{Slopes: EquiangularSlopes(3), Technique: T2}, true)
	li, err := BuildLineIndex(rel, ix.Slopes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < 80; qi++ {
		a := li.Slopes()[rng.Intn(3)]
		b := rng.Float64()*160 - 80
		want, err := EvalLine(a, b, rel)
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := li.QueryLine(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(got, want) {
			t.Fatalf("line y=%vx+%v: interval %v, want %v", a, b, got, want)
		}
		if st.FalseHits != 0 {
			t.Fatalf("interval stabbing is exact; got %d false hits", st.FalseHits)
		}
		viaDual, err := ix.QueryLine(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(got, viaDual.IDs) {
			t.Fatalf("interval and dual answers disagree: %v vs %v", got, viaDual.IDs)
		}
	}
}

// TestLineIndexRejectsOutOfSetSlopes: this is the restricted structure.
func TestLineIndexRejectsOutOfSetSlopes(t *testing.T) {
	rng := rand.New(rand.NewSource(702))
	rel, _ := buildRandomIndex(t, rng, 30, Options{Slopes: EquiangularSlopes(2), Technique: T2}, false)
	li, err := BuildLineIndex(rel, []float64{-1, 0, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := li.QueryLine(0.37, 0); err == nil {
		t.Fatal("out-of-set slope must be rejected")
	}
	if _, err := BuildLineIndex(rel, nil, nil); err == nil {
		t.Fatal("empty slope set must be rejected")
	}
}

// TestLineIndexRefusesSlopeWithinEps: a slope Eps/2 off a member of S used to
// be answered from the member's intervals, computed at another slope. Half a
// million out in x that moves TOP^P by 2.5e-4 — the line below stabs the box
// at slope 1 and misses it at 1 + Eps/2 — so the only right answers are
// EvalLine's or a refusal, and the restricted structure refuses.
func TestLineIndexRefusesSlopeWithinEps(t *testing.T) {
	rel := constraint.NewRelation(2)
	box, err := constraint.ParseTuple("x >= 500000 && x <= 500001 && y >= 500000 && y <= 500001", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rel.Insert(box); err != nil {
		t.Fatal(err)
	}
	li, err := BuildLineIndex(rel, []float64{-1, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const b = 0.9999 // TOP^P is 1 at slope 1 and 0.99975 at 1 + Eps/2
	off := 1 + geom.Eps/2
	if at, _ := EvalLine(1, b, rel); len(at) != 1 {
		t.Fatalf("EvalLine at the member: %v, want the box", at)
	}
	if near, _ := EvalLine(off, b, rel); len(near) != 0 {
		t.Fatalf("EvalLine Eps/2 off the member: %v, want nothing", near)
	}
	if got, _, err := li.QueryLine(1, b); err != nil || len(got) != 1 {
		t.Fatalf("QueryLine at the member: %v, %v; want the box", got, err)
	}
	if got, _, err := li.QueryLine(off, b); err == nil {
		t.Fatalf("QueryLine Eps/2 off the member answered %v from the member's intervals; want a refusal", got)
	}
	if _, _, err := li.QueryLine(math.Nextafter(1, 2), b); err == nil {
		t.Fatal("QueryLine one ulp off the member must be refused")
	}
}

// BenchmarkLineStabbing compares the two footnote-6 realizations of the
// restricted line query: interval-tree stabbing vs the dual index's two
// intersected sweeps.
func BenchmarkLineStabbing(b *testing.B) {
	rng := rand.New(rand.NewSource(703))
	rel := constraintRelationForBench(rng, 4000)
	slopes := EquiangularSlopes(3)
	ix, err := Build(rel, Options{Slopes: slopes, Technique: T2, PoolPages: 1 << 16})
	if err != nil {
		b.Fatal(err)
	}
	li, err := BuildLineIndex(rel, slopes, nil)
	if err != nil {
		b.Fatal(err)
	}
	bs := make([]float64, 64)
	for i := range bs {
		bs[i] = rng.Float64()*160 - 80
	}
	b.Run("intervalTree", func(b *testing.B) {
		var pages uint64
		for i := 0; i < b.N; i++ {
			if err := li.Pool().EvictAll(); err != nil {
				b.Fatal(err)
			}
			li.Pool().ResetStats()
			_, st, err := li.QueryLine(slopes[i%3], bs[i%len(bs)])
			if err != nil {
				b.Fatal(err)
			}
			pages += st.PagesRead
		}
		b.ReportMetric(float64(pages)/float64(b.N), "pages/query")
	})
	b.Run("dualSweeps", func(b *testing.B) {
		var pages uint64
		for i := 0; i < b.N; i++ {
			if err := ix.Pool().EvictAll(); err != nil {
				b.Fatal(err)
			}
			ix.Pool().ResetStats()
			res, err := ix.QueryLine(slopes[i%3], bs[i%len(bs)])
			if err != nil {
				b.Fatal(err)
			}
			pages += res.Stats.PagesRead
		}
		b.ReportMetric(float64(pages)/float64(b.N), "pages/query")
	})
}

func constraintRelationForBench(rng *rand.Rand, n int) *constraint.Relation {
	rel := constraint.NewRelation(2)
	for i := 0; i < n; i++ {
		_, _ = rel.Insert(randTuple(rng, false))
	}
	return rel
}

package core

import (
	"fmt"
	"math/rand"
	"testing"

	"dualcdb/internal/constraint"
	"dualcdb/internal/pagestore"
)

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// technique (T1 vs T2) and the slope-set cardinality k. Each reports the
// figures' currency — candidates, false hits and duplicates per query —
// alongside time.

func benchIndex(b testing.TB, n, k int, tech Technique) (*constraint.Relation, *Index, []constraint.Query) {
	b.Helper()
	rng := rand.New(rand.NewSource(77))
	rel := constraint.NewRelation(2)
	for i := 0; i < n; i++ {
		if _, err := rel.Insert(randTuple(rng, false)); err != nil {
			b.Fatal(err)
		}
	}
	ix, err := Build(rel, Options{
		Slopes:    EquiangularSlopes(k),
		Technique: tech,
		PoolPages: 1 << 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]constraint.Query, 64)
	for i := range queries {
		queries[i] = randQuery(rng)
	}
	return rel, ix, queries
}

// BenchmarkAblationTechnique compares the candidate/duplicate profile of
// T1 against T2 on the same workload — the paper's core §4.1 vs §4.2
// trade-off.
func BenchmarkAblationTechnique(b *testing.B) {
	for _, tech := range []Technique{T1, T2} {
		b.Run(tech.String(), func(b *testing.B) {
			_, ix, queries := benchIndex(b, 2000, 3, tech)
			var cands, dups, falseHits, results int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := ix.Query(queries[i%len(queries)])
				if err != nil {
					b.Fatal(err)
				}
				cands += res.Stats.Candidates
				dups += res.Stats.Duplicates
				falseHits += res.Stats.FalseHits
				results += res.Stats.Results
			}
			b.ReportMetric(float64(cands)/float64(b.N), "candidates/query")
			b.ReportMetric(float64(dups)/float64(b.N), "duplicates/query")
			b.ReportMetric(float64(falseHits)/float64(b.N), "falseHits/query")
		})
	}
}

// BenchmarkAblationK sweeps the slope-set cardinality: more slopes mean
// narrower strips (fewer false hits) but more trees (space, update cost).
func BenchmarkAblationK(b *testing.B) {
	for _, k := range []int{2, 3, 5, 9} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			_, ix, queries := benchIndex(b, 2000, k, T2)
			var falseHits int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := ix.Query(queries[i%len(queries)])
				if err != nil {
					b.Fatal(err)
				}
				falseHits += res.Stats.FalseHits
			}
			b.ReportMetric(float64(falseHits)/float64(b.N), "falseHits/query")
			b.ReportMetric(float64(ix.Pages()), "pages")
		})
	}
}

// BenchmarkQueryTupleWindow measures generalized-tuple (window) queries.
func BenchmarkQueryTupleWindow(b *testing.B) {
	_, ix, _ := benchIndex(b, 2000, 3, T2)
	window, err := constraint.ParseTuple("x >= -20 && x <= 20 && y >= -20 && y <= 20", 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kind := constraint.EXIST
		if i%2 == 0 {
			kind = constraint.ALL
		}
		if _, err := ix.QueryTuple(kind, window); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryFileStore measures cold T2 queries against a file-backed
// index. The pool is evicted before every query so each iteration pays the
// full physical read cost; physreads/op reports the per-query page
// accesses.
func BenchmarkQueryFileStore(b *testing.B) {
	store, err := pagestore.OpenFileStore(b.TempDir()+"/bench.db", 1024)
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	rng := rand.New(rand.NewSource(79))
	rel := constraint.NewRelation(2)
	for i := 0; i < 2000; i++ {
		if _, err := rel.Insert(randTuple(rng, false)); err != nil {
			b.Fatal(err)
		}
	}
	ix, err := Build(rel, Options{
		Slopes:    EquiangularSlopes(3),
		Technique: T2,
		Store:     store,
		PoolPages: 1 << 14,
	})
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]constraint.Query, 64)
	for i := range queries {
		queries[i] = randQuery(rng)
	}
	var pages uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := ix.Pool().EvictAll(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := ix.Query(queries[i%len(queries)])
		if err != nil {
			b.Fatal(err)
		}
		pages += res.Stats.PagesRead
	}
	b.ReportMetric(float64(pages)/float64(b.N), "physreads/op")
}

// BenchmarkIndexD3Query measures the d-dimensional path.
func BenchmarkIndexD3Query(b *testing.B) {
	rng := rand.New(rand.NewSource(78))
	rel := constraint.NewRelation(3)
	for i := 0; i < 500; i++ {
		if _, err := rel.Insert(randTuple3(rng, false)); err != nil {
			b.Fatal(err)
		}
	}
	ix, err := BuildD(rel, OptionsD{Sites: LatticeSites(2, 3, 1.5)})
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]constraint.Query, 64)
	for i := range queries {
		q := randQuery3(rng)
		q.Slope = []float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1}
		queries[i] = q
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Query(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRefineKernel measures one refinement evaluation per workload
// tuple — TOP^P at a query slope — on the packed generator kernel
// (Tuple.Top) against the reference it must equal bit for bit
// (Polyhedron.Top on the cached extension).
func BenchmarkRefineKernel(b *testing.B) {
	rel, _, _ := benchIndex(b, 2000, 3, T2)
	var tuples []*constraint.Tuple
	rel.Scan(func(t *constraint.Tuple) bool {
		tuples = append(tuples, t)
		return true
	})
	slope := []float64{0.37}
	b.Run("kernel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, t := range tuples {
				v, _ := t.Top(slope)
				kernelSink += v
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tuples)), "ns/tuple")
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, t := range tuples {
				ext, _ := t.Extension()
				kernelSink += ext.Top(slope)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tuples)), "ns/tuple")
	})
}

// kernelSink keeps the compiler from discarding BenchmarkRefineKernel's calls.
var kernelSink float64

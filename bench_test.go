// Benchmarks regenerating the paper's experiments (Section 5). One
// benchmark per table/figure; each reports the figures' metric —
// pages/query (I/O with a cold cache) or pages (space) — via
// b.ReportMetric, so `go test -bench=. -benchmem` prints the series the
// paper plots. The full parameter sweeps (every N and k) are produced by
// cmd/experiments; benchmarks pin N to a mid-range cardinality to stay
// fast while preserving the comparisons.
package dualcdb_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"dualcdb"
	"dualcdb/internal/core"
)

const benchN = 4000

type benchSetup struct {
	rel     *dualcdb.Relation
	queries []dualcdb.Query
}

func setupWorkload(b *testing.B, size dualcdb.SizeClass, kind dualcdb.QueryKind) benchSetup {
	b.Helper()
	rel, err := dualcdb.GenerateRelation(dualcdb.WorkloadConfig{N: benchN, Size: size, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	queries, err := dualcdb.GenerateQueries(rel, dualcdb.QueryWorkloadConfig{
		Count: 6, Kind: kind, SelectivityLo: 0.10, SelectivityHi: 0.15, Seed: 11,
	})
	if err != nil {
		b.Fatal(err)
	}
	return benchSetup{rel: rel, queries: queries}
}

// benchDual measures technique T2 at slope-set cardinality k.
func benchDual(b *testing.B, s benchSetup, k int) {
	idx, err := dualcdb.BuildIndex(s.rel, dualcdb.IndexOptions{
		Slopes: dualcdb.EquiangularSlopes(k), Technique: dualcdb.T2, PoolPages: 1 << 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	var pages uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := s.queries[i%len(s.queries)]
		if err := idx.Pool().EvictAll(); err != nil {
			b.Fatal(err)
		}
		idx.Pool().ResetStats()
		res, err := idx.Query(q)
		if err != nil {
			b.Fatal(err)
		}
		pages += res.Stats.PagesRead
	}
	b.ReportMetric(float64(pages)/float64(b.N), "pages/query")
}

// benchRPlus measures the R⁺-tree baseline.
func benchRPlus(b *testing.B, s benchSetup) {
	idx, err := dualcdb.BuildRPlusIndex(s.rel, dualcdb.RPlusOptions{PoolPages: 1 << 16})
	if err != nil {
		b.Fatal(err)
	}
	var pages uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := s.queries[i%len(s.queries)]
		if err := idx.Pool().EvictAll(); err != nil {
			b.Fatal(err)
		}
		idx.Pool().ResetStats()
		res, err := idx.Query(q)
		if err != nil {
			b.Fatal(err)
		}
		pages += res.Stats.PagesRead
	}
	b.ReportMetric(float64(pages)/float64(b.N), "pages/query")
}

func benchFigure(b *testing.B, size dualcdb.SizeClass, kind dualcdb.QueryKind) {
	s := setupWorkload(b, size, kind)
	for _, k := range []int{2, 3, 4, 5} {
		b.Run(fmt.Sprintf("T2/k=%d", k), func(b *testing.B) { benchDual(b, s, k) })
	}
	b.Run("RPlusTree", func(b *testing.B) { benchRPlus(b, s) })
}

// BenchmarkFig8aExistSmall regenerates Figure 8(a): EXIST selections over
// small objects — pages/query for T2 (k = 2..5) vs the R⁺-tree.
func BenchmarkFig8aExistSmall(b *testing.B) {
	benchFigure(b, dualcdb.SmallObjects, dualcdb.EXIST)
}

// BenchmarkFig8bAllSmall regenerates Figure 8(b): ALL selections over
// small objects.
func BenchmarkFig8bAllSmall(b *testing.B) {
	benchFigure(b, dualcdb.SmallObjects, dualcdb.ALL)
}

// BenchmarkFig9aExistMedium regenerates Figure 9(a): EXIST selections over
// medium objects.
func BenchmarkFig9aExistMedium(b *testing.B) {
	benchFigure(b, dualcdb.MediumObjects, dualcdb.EXIST)
}

// BenchmarkFig9bAllMedium regenerates Figure 9(b): ALL selections over
// medium objects.
func BenchmarkFig9bAllMedium(b *testing.B) {
	benchFigure(b, dualcdb.MediumObjects, dualcdb.ALL)
}

// BenchmarkFig10Space regenerates Figure 10: occupied pages for T2
// (k = 2..5) and the R⁺-tree at N = 4000 small objects. The metric is
// build cost; the reported "pages" metric is the figure's series.
func BenchmarkFig10Space(b *testing.B) {
	rel, err := dualcdb.GenerateRelation(dualcdb.WorkloadConfig{
		N: benchN, Size: dualcdb.SmallObjects, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{2, 3, 4, 5} {
		b.Run(fmt.Sprintf("T2/k=%d", k), func(b *testing.B) {
			var pages int
			for i := 0; i < b.N; i++ {
				idx, err := dualcdb.BuildIndex(rel, dualcdb.IndexOptions{
					Slopes: dualcdb.EquiangularSlopes(k), Technique: dualcdb.T2,
				})
				if err != nil {
					b.Fatal(err)
				}
				pages = idx.Pages()
			}
			b.ReportMetric(float64(pages), "pages")
		})
	}
	b.Run("RPlusTree", func(b *testing.B) {
		var pages int
		for i := 0; i < b.N; i++ {
			idx, err := dualcdb.BuildRPlusIndex(rel, dualcdb.RPlusOptions{})
			if err != nil {
				b.Fatal(err)
			}
			pages = idx.Pages()
		}
		b.ReportMetric(float64(pages), "pages")
	})
}

// BenchmarkQueryBatchParallel measures QueryBatch throughput on the
// Figure 9 (medium objects) workload at 1/2/4/8 query workers over a warm
// buffer pool. The workers=1 row is the sequential baseline the speedup is
// read against; every worker pins pages through the pool's one lock, so a
// row beyond the core count shows what that lock costs (DESIGN.md §6).
func BenchmarkQueryBatchParallel(b *testing.B) {
	rel, err := dualcdb.GenerateRelation(dualcdb.WorkloadConfig{
		N: benchN, Size: dualcdb.MediumObjects, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	queries, err := dualcdb.GenerateQueries(rel, dualcdb.QueryWorkloadConfig{
		Count: 64, Kind: dualcdb.EXIST, SelectivityLo: 0.10, SelectivityHi: 0.15, Seed: 11,
	})
	if err != nil {
		b.Fatal(err)
	}
	idx, err := dualcdb.BuildIndex(rel, dualcdb.IndexOptions{
		Slopes: dualcdb.EquiangularSlopes(3), Technique: dualcdb.T2,
		PoolPages: 1 << 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	// Warm the pool so the rows measure compute scaling, not first-touch
	// page faulting.
	if _, err := idx.QueryBatch(queries, dualcdb.BatchOptions{Workers: 1}); err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := idx.QueryBatch(queries, dualcdb.BatchOptions{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*len(queries))/b.Elapsed().Seconds(), "queries/sec")
		})
	}
}

// BenchmarkTable1PlanT1 measures the Table 1 app-query planner (the
// rewrite every out-of-set T1 query pays).
func BenchmarkTable1PlanT1(b *testing.B) {
	slopes := dualcdb.EquiangularSlopes(5)
	rng := rand.New(rand.NewSource(3))
	queries := make([]dualcdb.Query, 256)
	for i := range queries {
		queries[i] = dualcdb.Exist2(rng.NormFloat64()*3, rng.NormFloat64()*40, dualcdb.GE)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PlanT1(queries[i%len(queries)], slopes, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThm31RestrictedQuery measures the Section 3 structure on
// in-set slopes — the O(log_B n + t) path of Theorem 3.1.
func BenchmarkThm31RestrictedQuery(b *testing.B) {
	s := setupWorkload(b, dualcdb.SmallObjects, dualcdb.EXIST)
	slopes := dualcdb.EquiangularSlopes(3)
	idx, err := dualcdb.BuildIndex(s.rel, dualcdb.IndexOptions{
		Slopes: slopes, Technique: dualcdb.T2, PoolPages: 1 << 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	var pages uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := s.queries[i%len(s.queries)]
		q.Slope[0] = slopes[i%len(slopes)] // force the restricted path
		if err := idx.Pool().EvictAll(); err != nil {
			b.Fatal(err)
		}
		idx.Pool().ResetStats()
		res, err := idx.Query(q)
		if err != nil {
			b.Fatal(err)
		}
		pages += res.Stats.PagesRead
	}
	b.ReportMetric(float64(pages)/float64(b.N), "pages/query")
}

// freshTuples copies rel's tuples as constraints only: a Build over the copy
// resolves every tuple, as a first load does, where one over rel itself finds
// them resolved by the last.
func freshTuples(b *testing.B, rel *dualcdb.Relation) *dualcdb.Relation {
	b.Helper()
	out := dualcdb.NewRelation(rel.Dim())
	for _, id := range rel.IDs() {
		t, err := rel.Get(id)
		if err != nil {
			b.Fatal(err)
		}
		fresh, err := dualcdb.NewTuple(rel.Dim(), t.Constraints())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := out.Insert(fresh); err != nil {
			b.Fatal(err)
		}
	}
	return out
}

// BenchmarkIndexBuild measures a first bulk load of the dual index — every
// tuple resolved, keyed and routed, the trees written — on fresh tuples each
// iteration (copied outside the timer), at N = 2 000, k = 3 and at the
// benchmark module's scale, N = 12 000, k = 4. It reports ns per tuple.
func BenchmarkIndexBuild(b *testing.B) {
	for _, c := range []struct{ n, k int }{{2000, 3}, {12000, 4}} {
		b.Run(fmt.Sprintf("N=%d/k=%d", c.n, c.k), func(b *testing.B) {
			rel, err := dualcdb.GenerateRelation(dualcdb.WorkloadConfig{N: c.n, Size: dualcdb.SmallObjects, Seed: 7})
			if err != nil {
				b.Fatal(err)
			}
			opt := dualcdb.IndexOptions{Slopes: dualcdb.EquiangularSlopes(c.k), Technique: dualcdb.T2}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fresh := freshTuples(b, rel)
				b.StartTimer()
				if _, err := dualcdb.BuildIndex(fresh, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.n), "ns/tuple")
		})
	}
}

// BenchmarkOpenDatabase measures reopening a saved database file at the
// benchmark module's scale (N = 12 000, k = 4): the file is written once,
// and each iteration opens it — the catalog, the tuple chain, one prepare
// pass over the relation — and closes it. It reports ns per tuple.
func BenchmarkOpenDatabase(b *testing.B) {
	const n = 12000
	rel, err := dualcdb.GenerateRelation(dualcdb.WorkloadConfig{N: n, Size: dualcdb.SmallObjects, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench.cdb")
	idx, err := dualcdb.CreateDatabase(path, rel, dualcdb.IndexOptions{Slopes: dualcdb.EquiangularSlopes(4), Technique: dualcdb.T2})
	if err != nil {
		b.Fatal(err)
	}
	if err := idx.Save(); err != nil {
		b.Fatal(err)
	}
	if err := idx.Pool().Store().Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, opened, err := dualcdb.OpenDatabase(path, 0)
		if err != nil {
			b.Fatal(err)
		}
		if err := opened.Pool().Store().Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/tuple")
}

// BenchmarkIndexInsert measures incremental insertion (trees plus
// handicap maintenance).
func BenchmarkIndexInsert(b *testing.B) {
	rel, err := dualcdb.GenerateRelation(dualcdb.WorkloadConfig{
		N: b.N, Size: dualcdb.SmallObjects, Seed: 13,
	})
	if err != nil {
		b.Fatal(err)
	}
	ids := rel.IDs()
	tuples := make([]*dualcdb.Tuple, 0, len(ids))
	for _, id := range ids {
		t, _ := rel.Get(id)
		cons := t.Constraints()
		fresh, _ := dualcdb.NewTuple(2, cons)
		tuples = append(tuples, fresh)
	}
	target := dualcdb.NewRelation(2)
	idx, err := dualcdb.NewIndex(target, dualcdb.IndexOptions{
		Slopes: dualcdb.EquiangularSlopes(3), Technique: dualcdb.T2, PoolPages: 1 << 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.Insert(tuples[i]); err != nil {
			b.Fatal(err)
		}
	}
}

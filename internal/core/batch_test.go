package core

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"dualcdb/internal/constraint"
	"dualcdb/internal/pagestore"
)

// TestQueryBatchMatchesSequential: at the default, one and several workers
// QueryBatch must return exactly the sequential Query answers, in order.
func TestQueryBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	_, ix := buildRandomIndex(t, rng, 300, Options{
		Slopes: EquiangularSlopes(3), Technique: T2, PoolPages: 1 << 12,
	}, true)
	qs := make([]constraint.Query, 40)
	want := make([][]constraint.TupleID, len(qs))
	for i := range qs {
		qs[i] = randQuery(rng)
		res, err := ix.Query(qs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.IDs
	}
	for name, opts := range map[string]BatchOptions{
		"default":      {},
		"one-worker":   {Workers: 1},
		"four-workers": {Workers: 4},
	} {
		t.Run(name, func(t *testing.T) {
			got, err := ix.QueryBatch(qs, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(qs) {
				t.Fatalf("len = %d, want %d", len(got), len(qs))
			}
			for i := range got {
				if !sameIDs(got[i].IDs, want[i]) {
					t.Fatalf("query %d: batch %v != sequential %v", i, got[i].IDs, want[i])
				}
			}
		})
	}
}

// TestQueryBatchStress is the acceptance stress test: 8+ goroutines run a
// mix of single Query calls and QueryBatch calls against one shared T2
// index, and every answer must equal the precomputed sequential result.
// Run under -race in CI.
func TestQueryBatchStress(t *testing.T) {
	rng := rand.New(rand.NewSource(811))
	_, ix := buildRandomIndex(t, rng, 250, Options{
		Slopes: EquiangularSlopes(3), Technique: T2, PoolPages: 512,
	}, true)
	qs := make([]constraint.Query, 24)
	want := make([][]constraint.TupleID, len(qs))
	for i := range qs {
		qs[i] = randQuery(rng)
		res, err := ix.Query(qs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.IDs
	}

	const goroutines = 10
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				// Batch caller: whole workload through QueryBatch.
				for round := 0; round < 5; round++ {
					got, err := ix.QueryBatch(qs, BatchOptions{Workers: 2 + g%3})
					if err != nil {
						errs <- err
						return
					}
					for i := range got {
						if !sameIDs(got[i].IDs, want[i]) {
							errs <- errMismatch
							return
						}
					}
				}
			} else {
				// Single-query caller interleaving with the batches.
				for i := 0; i < 60; i++ {
					k := (g*60 + i) % len(qs)
					got, err := ix.Query(qs[k])
					if err != nil {
						errs <- err
						return
					}
					if !sameIDs(got.IDs, want[k]) {
						errs <- errMismatch
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestQueryBatchPagesReadExact: with a cold pool large enough to avoid
// eviction, the per-query PagesRead values of a concurrent batch must sum
// exactly to the pool's PhysicalReads — the miss-attribution counters
// partition the real I/O, with nothing dropped or double-counted.
func TestQueryBatchPagesReadExact(t *testing.T) {
	rng := rand.New(rand.NewSource(523))
	_, ix := buildRandomIndex(t, rng, 400, Options{
		Slopes: EquiangularSlopes(3), Technique: T2, PoolPages: 1 << 14,
	}, true)
	qs := make([]constraint.Query, 32)
	for i := range qs {
		qs[i] = randQuery(rng)
	}
	if err := ix.Pool().EvictAll(); err != nil {
		t.Fatal(err)
	}
	ix.Pool().ResetStats()
	got, err := ix.QueryBatch(qs, BatchOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for _, r := range got {
		sum += r.Stats.PagesRead
	}
	if misses := ix.Pool().Stats().PhysicalReads; sum != misses {
		t.Fatalf("sum of per-query PagesRead = %d, pool PhysicalReads = %d", sum, misses)
	}

	// Sequentially on a cold pool, each query's PagesRead must also equal
	// the pool delta for that query alone (the historical semantics).
	for i, q := range qs {
		if err := ix.Pool().EvictAll(); err != nil {
			t.Fatal(err)
		}
		ix.Pool().ResetStats()
		res, err := ix.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if delta := ix.Pool().Stats().PhysicalReads; res.Stats.PagesRead != delta {
			t.Fatalf("query %d: PagesRead %d != pool delta %d", i, res.Stats.PagesRead, delta)
		}
	}
}

// TestQueryBatchPropagatesError: an injected read fault must abort the
// batch with the store's error rather than returning partial results.
func TestQueryBatchPropagatesError(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	rel := constraint.NewRelation(2)
	for i := 0; i < 150; i++ {
		if _, err := rel.Insert(randTuple(rng, false)); err != nil {
			t.Fatal(err)
		}
	}
	fs := pagestore.NewFaultStore(pagestore.NewMemStore(pagestore.DefaultPageSize))
	ix, err := Build(rel, Options{
		Slopes: EquiangularSlopes(3), Technique: T2, Store: fs, PoolPages: 1 << 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]constraint.Query, 16)
	for i := range qs {
		qs[i] = randQuery(rng)
	}
	if err := ix.Pool().EvictAll(); err != nil {
		t.Fatal(err)
	}
	fs.FailReadAfter(3)
	res, err := ix.QueryBatch(qs, BatchOptions{Workers: 4})
	if !errors.Is(err, pagestore.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if res != nil {
		t.Fatalf("results must be nil on error, got %d entries", len(res))
	}
	fs.Disarm()
	if _, err := ix.QueryBatch(qs, BatchOptions{}); err != nil {
		t.Fatalf("after disarm: %v", err)
	}
}

// TestQueryBatchEmpty: an empty batch is a no-op.
func TestQueryBatchEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	_, ix := buildRandomIndex(t, rng, 50, Options{Slopes: EquiangularSlopes(2)}, false)
	got, err := ix.QueryBatch(nil, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("len = %d", len(got))
	}
}

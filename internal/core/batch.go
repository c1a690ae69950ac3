package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"dualcdb/internal/constraint"
)

// BatchOptions tunes QueryBatch's worker pool: its one level of
// parallelism is across queries, each of which runs on one goroutine.
type BatchOptions struct {
	// Workers is the number of queries executed concurrently (≤ 0 selects
	// GOMAXPROCS). Workers = 1 degenerates to sequential execution and is
	// the baseline the scaling benchmarks compare against.
	Workers int
}

// QueryBatch executes a batch of 2-D selections across a bounded worker
// pool and returns one Result per query, positionally. The whole batch
// runs against one pinned snapshot, so it is safe — and consistent — to
// mutate the index concurrently: every query sees the version current
// when the batch started (see the MVCC model in DESIGN.md §13). Queries
// only pin pages in the buffer pool, read the frozen tree pages and
// evaluate cached tuple extensions, so readers wait for each other only on
// the pool's one lock, held for a frame-table lookup on a hit and for the
// store read on a miss.
//
// Each query carries its own exact I/O counter, so every Result's
// QueryStats.PagesRead is the number of page misses that query itself
// faulted in — stable under concurrency, unlike a before/after delta on
// the shared pool statistics.
//
// The first error aborts the batch (workers drain without starting new
// queries) and is returned with a nil slice.
func (ix *Index) QueryBatch(qs []constraint.Query, opts BatchOptions) ([]Result, error) {
	rs := ix.pinRoots()
	defer ix.unpinRoots(rs)
	return ix.queryBatch(rs, qs, opts)
}

// QueryBatch runs the batch against this snapshot's version.
func (s *Snapshot) QueryBatch(qs []constraint.Query, opts BatchOptions) ([]Result, error) {
	if err := s.guard(); err != nil {
		return nil, err
	}
	return s.ix.queryBatch(s.rs, qs, opts)
}

// queryBatch runs the batch against one pinned version.
func (ix *Index) queryBatch(rs *rootSet, qs []constraint.Query, opts BatchOptions) ([]Result, error) {
	if len(qs) == 0 {
		return []Result{}, nil
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(qs) {
		workers = len(qs)
	}

	bt := ix.opt.Observe.StartBatch()
	results := make([]Result, len(qs))
	var next atomic.Int64
	var failed atomic.Bool
	var errOnce sync.Once
	var firstErr error

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(qs) || failed.Load() {
					return
				}
				res, err := ix.query(qs[i], ix.execCtxFor(rs))
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					failed.Store(true)
					return
				}
				results[i] = res
			}
		}()
	}
	wg.Wait()
	bt.Done()
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

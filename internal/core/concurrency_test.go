package core

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"dualcdb/internal/constraint"
)

var errMismatch = errors.New("concurrent query returned a wrong answer")

// TestConcurrentQueries: the index supports concurrent readers — queries
// only pin pages (mutex-protected pool), evaluate the kernel over each
// tuple's cached generators (sync.Once) and read immutable index state.
// Run under -race to verify
// (`go test -race ./internal/core -run Concurrent`).
func TestConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(801))
	rel, ix := buildRandomIndex(t, rng, 200, Options{
		Slopes: EquiangularSlopes(3), Technique: T2, PoolPages: 256,
	}, true)

	type queryCase struct {
		q    constraint.Query
		want []constraint.TupleID
	}
	qs := make([]queryCase, 32)
	for i := range qs {
		qs[i].q = randQuery(rng)
		want, err := qs[i].q.Eval(rel)
		if err != nil {
			t.Fatal(err)
		}
		qs[i].want = want
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c := qs[(w*50+i)%len(qs)]
				got, err := ix.Query(c.q)
				if err != nil {
					errs <- err
					return
				}
				if !sameIDs(got.IDs, c.want) {
					errs <- errMismatch
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentReadersWithWriter is the MVCC stress test, meant to run
// under -race: one writer goroutine commits inserts and deletes while
// reader goroutines run single queries, batches, pinned snapshots and
// stats reads for as long as the writer runs. Before the copy-on-write root
// sets this raced on the trees' pages, ix.indexed and the relation map; now
// every reader pins a version with one atomic load and must see internally
// consistent answers no matter how commits interleave. One reader runs only
// 2-D queries at slopes outside every strip, whose sweeps read the pinned
// version's x-extent table: a field a commit wrote after publishing the
// version races with it.
func TestConcurrentReadersWithWriter(t *testing.T) {
	for _, c := range engineCases {
		t.Run(c.name, func(t *testing.T) { testConcurrentReadersWithWriter(t, c) })
	}
}

func testConcurrentReadersWithWriter(t *testing.T, ec engineCase) {
	rng := rand.New(rand.NewSource(71))
	_, ix := buildCase(t, ec, rng, 200, nil)

	const (
		readers   = 4
		writerOps = 250
	)
	var wg sync.WaitGroup
	writing := make(chan struct{})

	// Writer: mostly single-op commits, with the occasional multi-op
	// batch, against the live index.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(writing)
		wrng := rand.New(rand.NewSource(72))
		var ids []constraint.TupleID
		ix.roots.Load().tuples.Scan(func(t *constraint.Tuple) bool {
			ids = append(ids, t.ID())
			return true
		})
		for op := 0; op < writerOps; op++ {
			switch {
			case len(ids) < 50 || wrng.Intn(3) > 0:
				id, err := ix.Insert(ec.tuple(wrng, false))
				if err != nil {
					t.Errorf("writer insert: %v", err)
					return
				}
				ids = append(ids, id)
			case wrng.Intn(8) == 0:
				c := ix.Begin()
				for i := 0; i < 5 && len(ids) > 0; i++ {
					j := wrng.Intn(len(ids))
					if err := c.Delete(ids[j]); err != nil {
						t.Errorf("writer batch delete: %v", err)
						c.Abort()
						return
					}
					ids = append(ids[:j], ids[j+1:]...)
				}
				if err := c.Commit(); err != nil {
					t.Errorf("writer commit: %v", err)
					return
				}
			default:
				j := wrng.Intn(len(ids))
				if err := ix.Delete(ids[j]); err != nil {
					t.Errorf("writer delete: %v", err)
					return
				}
				ids = append(ids[:j], ids[j+1:]...)
			}
		}
	}()

	// The outside reader: queries at slopes outside every strip of the 2-D
	// slope set, on the t2(outside) path where the index runs T2.
	if ec.dim == 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rrng := rand.New(rand.NewSource(99))
			for {
				select {
				case <-writing:
					return
				default:
				}
				q := ec.query(rrng)
				q.Slope[0] = (30 + 20*rrng.Float64()) * float64(1-2*rrng.Intn(2))
				res, err := ix.Query(q)
				if err != nil {
					t.Errorf("outside reader: %v", err)
					return
				}
				if ix.opt.Technique == T2 && res.Stats.Path != "t2(outside)" {
					t.Errorf("outside reader: %v ran on path %q", q, res.Stats.Path)
					return
				}
			}
		}()
	}

	// Readers: every query path pins a version (explicitly or per call),
	// and re-running a query on a pinned snapshot must be bit-identical
	// even while commits land underneath.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rrng := rand.New(rand.NewSource(seed))
			for i := 0; ; i++ {
				select {
				case <-writing:
					return
				default:
				}
				q := ec.query(rrng)
				switch i % 4 {
				case 0: // per-call snapshot
					if _, err := ix.Query(q); err != nil {
						t.Errorf("reader query: %v", err)
						return
					}
				case 1: // pinned snapshot: repeatable reads
					s := ix.Snapshot()
					r1, err := s.Query(q)
					if err != nil {
						s.Release()
						t.Errorf("reader snapshot query: %v", err)
						return
					}
					r2, err := s.Query(q)
					if err != nil {
						s.Release()
						t.Errorf("reader snapshot requery: %v", err)
						return
					}
					if !sameIDs(r1.IDs, r2.IDs) {
						t.Errorf("snapshot v%d not repeatable: %v then %v",
							s.Version(), r1.IDs, r2.IDs)
					}
					s.Release()
				case 2: // batch sharing one pinned version
					qs := []constraint.Query{q, ec.query(rrng), ec.query(rrng)}
					if _, err := ix.QueryBatch(qs, BatchOptions{Workers: 2}); err != nil {
						t.Errorf("reader batch: %v", err)
						return
					}
				default: // metadata reads are lock-free too
					_ = ix.Len()
					_ = ix.Pages()
					_ = ix.StatsSnapshot()
				}
			}
		}(int64(100 + r))
	}
	wg.Wait()

	if c := ix.Pool().SnapshotCensus(); c.Active != 0 || c.DeferredPages != 0 {
		t.Fatalf("census after quiesce: %+v", c)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Final consistency: the quiesced index matches the exhaustive scan
	// of its own surviving relation.
	rs := ix.roots.Load()
	for i := 0; i < 20; i++ {
		q := ec.query(rng)
		var want []constraint.TupleID
		rs.tuples.Scan(func(tp *constraint.Tuple) bool {
			ok, err := q.Matches(tp)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				want = append(want, tp.ID())
			}
			return true
		})
		got, err := ix.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(got.IDs, want) {
			t.Fatalf("post-stress query %v: got %v, want %v", q, got.IDs, want)
		}
	}
}

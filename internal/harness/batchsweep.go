package harness

import (
	"fmt"
	"strings"
	"time"

	"dualcdb/internal/constraint"
	"dualcdb/internal/core"
	"dualcdb/internal/workload"
)

// BatchSweepConfig parameterizes the batch-throughput sweep: the same
// calibrated query mix the figures use (Figure 9's medium objects by
// default), executed through Index.QueryBatch at increasing worker counts.
type BatchSweepConfig struct {
	// N is the relation cardinality (default 4000).
	N int
	// K is the slope-set cardinality for T2 (default 3).
	K int
	// Size is the object regime; pass workload.Medium for the Figure 9
	// workload (the zero value is workload.Small).
	Size workload.SizeClass
	// Kind is the selection type (default EXIST).
	Kind constraint.QueryKind
	// Queries is the batch size (default 64).
	Queries int
	// Workers are the swept pool widths (default 1, 2, 4, 8).
	Workers []int
	// Rounds is how many times each batch is timed; the fastest round is
	// reported (default 3).
	Rounds int
	// Seed drives the generator.
	Seed int64
}

func (c *BatchSweepConfig) defaults() {
	if c.N <= 0 {
		c.N = 4000
	}
	if c.K <= 0 {
		c.K = 3
	}
	if c.Queries <= 0 {
		c.Queries = 64
	}
	if len(c.Workers) == 0 {
		c.Workers = []int{1, 2, 4, 8}
	}
	if c.Rounds <= 0 {
		c.Rounds = 3
	}
}

// BatchSweepRow is one measured worker count.
type BatchSweepRow struct {
	Workers     int
	Elapsed     time.Duration // fastest round for the whole batch
	QueriesPerS float64
	Speedup     float64 // vs the Workers=1 row
}

// RunBatchSweep builds a T2 index over the configured workload, checks
// QueryBatch against sequential Query results, then times the batch at
// every worker count. It returns one row per worker count with throughput
// and speedup relative to a single worker.
func RunBatchSweep(cfg BatchSweepConfig) ([]BatchSweepRow, error) {
	cfg.defaults()
	rel, err := workload.GenerateRelation(workload.Config{
		N: cfg.N, Size: cfg.Size, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	queries, err := workload.GenerateQueries(rel, workload.QueryConfig{
		Count: cfg.Queries, Kind: cfg.Kind,
		SelectivityLo: 0.10, SelectivityHi: 0.15,
		Seed: cfg.Seed + 1,
	})
	if err != nil {
		return nil, err
	}
	ix, err := core.Build(rel, core.Options{
		Slopes:    core.EquiangularSlopes(cfg.K),
		Technique: core.T2,
		PoolPages: 1 << 16,
	})
	if err != nil {
		return nil, err
	}

	// Correctness gate: the parallel batch must return exactly the
	// sequential answers.
	want := make([][]constraint.TupleID, len(queries))
	for i, q := range queries {
		res, err := ix.Query(q)
		if err != nil {
			return nil, err
		}
		want[i] = res.IDs
	}
	got, err := ix.QueryBatch(queries, core.BatchOptions{})
	if err != nil {
		return nil, err
	}
	for i := range got {
		if !equalIDs(got[i].IDs, want[i]) {
			return nil, fmt.Errorf("harness: QueryBatch result %d differs from sequential Query", i)
		}
	}

	var rows []BatchSweepRow
	for _, w := range cfg.Workers {
		best := time.Duration(0)
		for r := 0; r < cfg.Rounds; r++ {
			start := time.Now()
			if _, err := ix.QueryBatch(queries, core.BatchOptions{Workers: w}); err != nil {
				return nil, err
			}
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		rows = append(rows, BatchSweepRow{
			Workers:     w,
			Elapsed:     best,
			QueriesPerS: float64(len(queries)) / best.Seconds(),
		})
	}
	if len(rows) > 0 && rows[0].QueriesPerS > 0 {
		for i := range rows {
			rows[i].Speedup = rows[i].QueriesPerS / rows[0].QueriesPerS
		}
	}
	return rows, nil
}

func equalIDs(a, b []constraint.TupleID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FormatBatchSweep renders the sweep as an aligned table.
func FormatBatchSweep(rows []BatchSweepRow) string {
	var sb strings.Builder
	sb.WriteString("workers      batch time    queries/sec      speedup\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10d %12s %14.0f %11.2fx\n",
			r.Workers, r.Elapsed.Round(time.Microsecond), r.QueriesPerS, r.Speedup)
	}
	return sb.String()
}

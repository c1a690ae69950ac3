// Package harness regenerates the paper's experimental figures: it builds
// the Section 5 workloads, runs the calibrated ALL/EXIST query mixes
// against technique T2 (for every slope-set cardinality k) and against the
// R⁺-tree baseline, and reports the same series the paper plots — average
// page accesses per query (Figures 8 and 9) and occupied disk pages
// (Figure 10).
package harness

import (
	"fmt"
	"strings"

	"dualcdb/internal/constraint"
	"dualcdb/internal/core"
	"dualcdb/internal/pagestore"
	"dualcdb/internal/rplustree"
	"dualcdb/internal/workload"
)

// Series is one plotted line: a label and a Y value per X position.
type Series struct {
	Label string
	Y     []float64
}

// Figure is a regenerated experiment: X positions (relation cardinalities)
// and one series per indexed structure.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	X      []int
	Series []Series
}

// Config parameterizes a figure run.
type Config struct {
	// Ns are the relation cardinalities (default: the paper's 500, 2000,
	// 4000, 8000, 12000).
	Ns []int
	// Ks are the slope-set cardinalities for T2 (default 2, 3, 4, 5).
	Ks []int
	// Size is the object regime (Figures 8 vs 9).
	Size workload.SizeClass
	// Kind is the selection type (sub-figures a vs b).
	Kind constraint.QueryKind
	// QueriesPerPoint is the number of calibrated queries averaged per
	// data point (default 6, the paper's mix).
	QueriesPerPoint int
	// SelLo/SelHi is the selectivity band (default 0.10–0.15, the band the
	// paper reports).
	SelLo, SelHi float64
	// PageSize in bytes (default 1024).
	PageSize int
	// Seed drives workload generation.
	Seed int64
}

func (c *Config) defaults() {
	if len(c.Ns) == 0 {
		c.Ns = []int{500, 2000, 4000, 8000, 12000}
	}
	if len(c.Ks) == 0 {
		c.Ks = []int{2, 3, 4, 5}
	}
	if c.QueriesPerPoint <= 0 {
		c.QueriesPerPoint = 6
	}
	if c.SelLo <= 0 {
		c.SelLo, c.SelHi = 0.10, 0.15
	}
	if c.PageSize <= 0 {
		c.PageSize = pagestore.DefaultPageSize
	}
}

// coldIO runs fn with a cold buffer pool and returns the physical page
// reads it caused — the "page accesses" metric of the figures.
func coldIO(pool *pagestore.Pool, fn func() error) (uint64, error) {
	if err := pool.EvictAll(); err != nil {
		return 0, err
	}
	pool.ResetStats()
	if err := fn(); err != nil {
		return 0, err
	}
	return pool.Stats().PhysicalReads, nil
}

// RunQueryFigure regenerates one of Figures 8(a/b) or 9(a/b): average page
// accesses per query versus relation cardinality, for the R⁺-tree and for
// T2 at every k in Ks.
func RunQueryFigure(id, title string, cfg Config) (Figure, error) {
	cfg.defaults()
	fig := Figure{
		ID: id, Title: title,
		XLabel: "relation cardinality N",
		YLabel: "avg page accesses per query",
		X:      cfg.Ns,
	}
	series := make(map[string]*Series)
	order := []string{"R+-tree"}
	series["R+-tree"] = &Series{Label: "R+-tree"}
	for _, k := range cfg.Ks {
		label := fmt.Sprintf("T2 k=%d", k)
		order = append(order, label)
		series[label] = &Series{Label: label}
	}

	for ni, n := range cfg.Ns {
		rel, err := workload.GenerateRelation(workload.Config{
			N: n, Size: cfg.Size, Seed: cfg.Seed + int64(ni),
		})
		if err != nil {
			return Figure{}, err
		}
		queries, err := workload.GenerateQueries(rel, workload.QueryConfig{
			Count: cfg.QueriesPerPoint, Kind: cfg.Kind,
			SelectivityLo: cfg.SelLo, SelectivityHi: cfg.SelHi,
			Seed: cfg.Seed + 1000 + int64(ni),
		})
		if err != nil {
			return Figure{}, err
		}

		// R⁺-tree baseline.
		rix, err := rplustree.Build(rel, rplustree.Options{PageSize: cfg.PageSize, PoolPages: 1 << 16})
		if err != nil {
			return Figure{}, err
		}
		var total uint64
		for _, q := range queries {
			io, err := coldIO(rix.Pool(), func() error {
				_, err := rix.Query(q)
				return err
			})
			if err != nil {
				return Figure{}, err
			}
			total += io
		}
		series["R+-tree"].Y = append(series["R+-tree"].Y, float64(total)/float64(len(queries)))

		// Dual index, technique T2, for each k.
		for _, k := range cfg.Ks {
			ix, err := core.Build(rel, core.Options{
				Slopes:    core.EquiangularSlopes(k),
				Technique: core.T2,
				PageSize:  cfg.PageSize,
				PoolPages: 1 << 16,
			})
			if err != nil {
				return Figure{}, err
			}
			var total uint64
			for _, q := range queries {
				io, err := coldIO(ix.Pool(), func() error {
					_, err := ix.Query(q)
					return err
				})
				if err != nil {
					return Figure{}, err
				}
				total += io
			}
			label := fmt.Sprintf("T2 k=%d", k)
			series[label].Y = append(series[label].Y, float64(total)/float64(len(queries)))
		}
	}
	for _, label := range order {
		fig.Series = append(fig.Series, *series[label])
	}
	return fig, nil
}

// RunSpaceFigure regenerates Figure 10: occupied disk pages versus
// relation cardinality for the R⁺-tree and T2 at every k.
func RunSpaceFigure(cfg Config) (Figure, error) {
	cfg.defaults()
	fig := Figure{
		ID: "fig10", Title: "Disk space occupied by technique T2 and the R+-tree",
		XLabel: "relation cardinality N",
		YLabel: "occupied pages",
		X:      cfg.Ns,
	}
	series := make(map[string]*Series)
	order := []string{"R+-tree"}
	series["R+-tree"] = &Series{Label: "R+-tree"}
	for _, k := range cfg.Ks {
		label := fmt.Sprintf("T2 k=%d", k)
		order = append(order, label)
		series[label] = &Series{Label: label}
	}
	for ni, n := range cfg.Ns {
		rel, err := workload.GenerateRelation(workload.Config{
			N: n, Size: cfg.Size, Seed: cfg.Seed + int64(ni),
		})
		if err != nil {
			return Figure{}, err
		}
		rix, err := rplustree.Build(rel, rplustree.Options{PageSize: cfg.PageSize, PoolPages: 1 << 16})
		if err != nil {
			return Figure{}, err
		}
		series["R+-tree"].Y = append(series["R+-tree"].Y, float64(rix.Pages()))
		for _, k := range cfg.Ks {
			ix, err := core.Build(rel, core.Options{
				Slopes:    core.EquiangularSlopes(k),
				Technique: core.T2,
				PageSize:  cfg.PageSize,
				PoolPages: 1 << 16,
			})
			if err != nil {
				return Figure{}, err
			}
			label := fmt.Sprintf("T2 k=%d", k)
			series[label].Y = append(series[label].Y, float64(ix.Pages()))
		}
	}
	for _, label := range order {
		fig.Series = append(fig.Series, *series[label])
	}
	return fig, nil
}

// Format renders the figure as an aligned text table (one row per X, one
// column per series).
func (f Figure) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", f.ID, f.Title)
	fmt.Fprintf(&sb, "%-10s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&sb, "%14s", s.Label)
	}
	sb.WriteByte('\n')
	for i, x := range f.X {
		fmt.Fprintf(&sb, "%-10d", x)
		for _, s := range f.Series {
			if i < len(s.Y) {
				fmt.Fprintf(&sb, "%14.1f", s.Y[i])
			} else {
				fmt.Fprintf(&sb, "%14s", "-")
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// CSV renders the figure as comma-separated values.
func (f Figure) CSV() string {
	var sb strings.Builder
	sb.WriteString("N")
	for _, s := range f.Series {
		sb.WriteString("," + s.Label)
	}
	sb.WriteByte('\n')
	for i, x := range f.X {
		fmt.Fprintf(&sb, "%d", x)
		for _, s := range f.Series {
			fmt.Fprintf(&sb, ",%g", s.Y[i])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// SeriesByLabel returns the series with the given label.
func (f Figure) SeriesByLabel(label string) (Series, bool) {
	for _, s := range f.Series {
		if s.Label == label {
			return s, true
		}
	}
	return Series{}, false
}

// ShapeReport summarizes the paper-shape checks for a query figure: at how
// many data points each T2 series beats the R⁺-tree, and the win factors.
type ShapeReport struct {
	PointsTotal   int
	PointsT2Wins  int
	MinWinFactor  float64 // min over points of (R+ I/O) / (T2 I/O)
	MeanWinFactor float64
}

// Shape computes the ShapeReport of a query figure, comparing every T2
// series point against the R⁺-tree baseline.
func (f Figure) Shape() ShapeReport {
	base, ok := f.SeriesByLabel("R+-tree")
	if !ok {
		return ShapeReport{}
	}
	rep := ShapeReport{MinWinFactor: 1e18}
	var sum float64
	for _, s := range f.Series {
		if s.Label == "R+-tree" {
			continue
		}
		for i := range s.Y {
			if i >= len(base.Y) || s.Y[i] == 0 {
				continue
			}
			rep.PointsTotal++
			factor := base.Y[i] / s.Y[i]
			if factor > 1 {
				rep.PointsT2Wins++
			}
			if factor < rep.MinWinFactor {
				rep.MinWinFactor = factor
			}
			sum += factor
		}
	}
	if rep.PointsTotal > 0 {
		rep.MeanWinFactor = sum / float64(rep.PointsTotal)
	}
	return rep
}

// SpaceRatios returns, for each k, the mean over N of
// pages(T2, k) / (k · pages(R+)) — the paper reports this ratio as ≈ 1.32.
func (f Figure) SpaceRatios(ks []int) map[int]float64 {
	base, ok := f.SeriesByLabel("R+-tree")
	if !ok {
		return nil
	}
	out := make(map[int]float64)
	for _, k := range ks {
		s, ok := f.SeriesByLabel(fmt.Sprintf("T2 k=%d", k))
		if !ok {
			continue
		}
		var sum float64
		n := 0
		for i := range s.Y {
			if i < len(base.Y) && base.Y[i] > 0 {
				sum += s.Y[i] / (float64(k) * base.Y[i])
				n++
			}
		}
		if n > 0 {
			out[k] = sum / float64(n)
		}
	}
	return out
}

package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"time"

	"dualcdb/internal/constraint"
	"dualcdb/internal/core"
	"dualcdb/internal/geom"
	"dualcdb/internal/workload"
)

// The paper's Section 5 settings, shared by every workload.
const (
	slopeCount = 4    // k: |S|, EquiangularSlopes
	pageSize   = 1024 // bytes
	selLo      = 0.10 // query selectivity band
	selHi      = 0.15
	warmPool   = 4096 // frames: more than the 1 368 index pages at N = 12 000
	coldPool   = 64   // frames: about 5 % of the index
)

// spec is one workload: a relation size, a store, a query set and whether a
// writer runs beside the reader. Every workload runs a query phase and then
// a commit phase; queryShare splits the measured seconds between them.
type spec struct {
	name string
	why  string
	// n is the relation size and queries the number of distinct queries.
	n, queries int
	// pool is the buffer-pool capacity of the index the queries run on.
	pool int
	// file puts the index on a FileStore (CreateDatabase → Save → Open) and
	// empties the pool before every query, outside the timed region.
	file bool
	// restricted draws the query slopes from S instead of outside it.
	restricted bool
	// writer keeps a second goroutine committing during the query phase.
	writer     bool
	queryShare float64
}

var specs = []spec{
	{
		name: "t2_warm", n: 12000, queries: 64, pool: warmPool, queryShare: 0.8,
		why: "T2 and T1-fallback queries on a warm MemStore: refinement owns the time and the pool reads nothing, so cheaper or rarer refinement shows here and pool/store work must not",
	},
	{
		name: "restricted_warm", n: 12000, queries: 64, pool: warmPool, restricted: true, queryShare: 0.8,
		why: "query slopes in S (Theorem 3.1, no false hits): only a descent, one sweep and result assembly are needed, so skipping refinement must collapse this one and leave t2_warm alone",
	},
	{
		name: "cold_file", n: 12000, queries: 64, pool: coldPool, file: true, queryShare: 0.8,
		why: "the t2_warm queries on a saved and reopened FileStore with a 64-page pool emptied before each query: same CPU work, so the gap to t2_warm is the btree-miss, pagestore and file cost",
	},
	{
		name: "write_mix", n: 12000, queries: 32, pool: warmPool, writer: true, queryShare: 0.7,
		why: "the t2_warm relation read beside a writer committing 100 times a second, then the writer alone: a read-side gain that taxes COW commits shows, as do per-commit O(N) copies and reads waiting for writes",
	},
}

func specByName(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// short shrinks a workload to test scale.
func (sp spec) short() spec {
	sp.n = 500
	sp.queries = 16
	return sp
}

// inputs is everything a workload feeds the engine, made from the seed
// before the engine sees any of it.
type inputs struct {
	slopes []float64
	// rel is the base relation. Calibration has cached its tuples'
	// extensions, so every set-up runs on a fresh clone (cloneRelation).
	rel     *constraint.Relation
	queries []constraint.Query
	// templates are the constraint sets the writer inserts, cycled; each
	// insert makes a fresh Tuple, so Insert pays for the extension.
	templates [][]geom.HalfSpace

	genRelation, genQueries time.Duration
}

func generate(sp spec, seed int64, tr *tracer, parent int) (*inputs, error) {
	in := &inputs{slopes: core.EquiangularSlopes(slopeCount)}
	t0 := time.Now()
	span := tr.begin("workload.gen_relation", parent)
	rel, err := workload.GenerateRelation(workload.Config{N: sp.n, Size: workload.Small, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("generate relation: %w", err)
	}
	in.rel = rel
	nt := sp.n / 8
	if nt > 2048 {
		nt = 2048
	}
	fresh, err := workload.GenerateRelation(workload.Config{N: nt, Size: workload.Small, Seed: seed + 1})
	if err != nil {
		return nil, fmt.Errorf("generate insert templates: %w", err)
	}
	fresh.Scan(func(t *constraint.Tuple) bool {
		in.templates = append(in.templates, t.Constraints())
		return true
	})
	tr.end(span)
	in.genRelation = time.Since(t0)

	t0 = time.Now()
	span = tr.begin("workload.gen_queries", parent)
	rng := rand.New(rand.NewSource(seed + 2))
	if sp.restricted {
		in.queries, err = restrictedQueries(tuplesOf(rel), in.slopes, sp.queries, rng)
	} else {
		in.queries, err = t2Queries(tuplesOf(rel), sp.queries, rng)
	}
	if err != nil {
		return nil, fmt.Errorf("generate queries: %w", err)
	}
	tr.end(span)
	in.genQueries = time.Since(t0)
	return in, nil
}

// The four shapes of a half-plane selection; each picks its own tree and
// sweep direction (Section 3).
var shapes = [4]struct {
	kind constraint.QueryKind
	op   geom.Op
}{
	{constraint.EXIST, geom.GE}, {constraint.EXIST, geom.LE},
	{constraint.ALL, geom.GE}, {constraint.ALL, geom.LE},
}

// t2Queries draws n queries with slopes outside S. As in
// workload.GenerateQueries the slopes are tangents of angles spread over
// (−π/2, π/2) less a margin and the selectivities lie in the 10–15 % band,
// but the angles are an even grid of n points instead of seeded draws: the
// work of a query depends so sharply on its slope (which strip, or the
// T1 fallback) that seeded slopes moved candidates per query by 10 % from
// seed to seed, against 0.4 % on the grid, and the end-to-end bounds could
// not hold across seeds. The seed drives the relation, the selectivity
// within its stratum and the writer's stream. Every shape gets one query
// per stratum of angle and of selectivity.
func t2Queries(tuples []*constraint.Tuple, n int, rng *rand.Rand) ([]constraint.Query, error) {
	per := n / len(shapes)
	const span = math.Pi - 0.15
	var out []constraint.Query
	for j := 0; j < per; j++ {
		for c, sh := range shapes {
			ang := (float64(j*len(shapes)+c)+0.5)/float64(n)*span - span/2
			sel := stratifiedSel((j*5+c*3)%per, per, rng)
			q, err := calibrate(tuples, sh.kind, math.Tan(ang), sh.op, sel)
			if err != nil {
				return nil, err
			}
			out = append(out, q)
		}
	}
	return out, nil
}

// restrictedQueries draws n queries over the members of S × the four
// shapes × n/16 selectivity strata.
func restrictedQueries(tuples []*constraint.Tuple, slopes []float64, n int, rng *rand.Rand) ([]constraint.Query, error) {
	per := n / (len(slopes) * len(shapes))
	if per < 1 {
		per = 1
	}
	var out []constraint.Query
	for _, a := range slopes {
		for _, sh := range shapes {
			for j := 0; j < per; j++ {
				q, err := calibrate(tuples, sh.kind, a, sh.op, stratifiedSel(j, per, rng))
				if err != nil {
					return nil, err
				}
				out = append(out, q)
			}
		}
	}
	return out, nil
}

func stratifiedSel(stratum, strata int, rng *rand.Rand) float64 {
	return selLo + (selHi-selLo)*(float64(stratum)+rng.Float64())/float64(strata)
}

// calibrate picks the intercept at which the query matches about sel of the
// tuples: the exact quantile of the surface value the query compares against
// (the rule of workload.GenerateQueries).
func calibrate(tuples []*constraint.Tuple, kind constraint.QueryKind, a float64, op geom.Op, sel float64) (constraint.Query, error) {
	probe := constraint.Query2(kind, a, 0, op)
	vals := make([]float64, 0, len(tuples))
	for _, t := range tuples {
		v, err := probe.SurfaceValue(t)
		if err != nil {
			return constraint.Query{}, err
		}
		if !math.IsNaN(v) {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return constraint.Query{}, fmt.Errorf("calibrate %v: no satisfiable tuple", probe)
	}
	sort.Float64s(vals)
	want := int(sel * float64(len(vals)))
	if want < 1 {
		want = 1
	}
	b := vals[want-1]
	if probe.SweepsUp() {
		b = vals[len(vals)-want] // matching tuples have surface value ≥ b
	}
	if math.IsInf(b, 0) {
		return constraint.Query{}, fmt.Errorf("calibrate %v: unbounded surface value at the quantile", probe)
	}
	return constraint.Query2(kind, a, b, op), nil
}

func tuplesOf(rel *constraint.Relation) []*constraint.Tuple {
	ts := make([]*constraint.Tuple, 0, rel.Len())
	rel.Scan(func(t *constraint.Tuple) bool {
		ts = append(ts, t)
		return true
	})
	return ts
}

// cloneRelation copies the constraints into fresh tuples with the same ids
// and no cached geometry, so that a set-up pays for extensions and
// envelopes the way a first load does.
func cloneRelation(rel *constraint.Relation) (*constraint.Relation, error) {
	out := constraint.NewRelation(rel.Dim())
	var err error
	rel.Scan(func(t *constraint.Tuple) bool {
		var c *constraint.Tuple
		if c, err = constraint.NewTuple(rel.Dim(), t.Constraints()); err != nil {
			return false
		}
		var id constraint.TupleID
		if id, err = out.Insert(c); err == nil && id != t.ID() {
			err = fmt.Errorf("clone of tuple %d got id %d", t.ID(), id)
		}
		return err == nil
	})
	return out, err
}

// fingerprint hashes every generated number, so that two runs can be shown
// to have had identical inputs.
func (in *inputs) fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(f float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	hs := func(cons []geom.HalfSpace) {
		for _, c := range cons {
			for _, a := range c.A {
				put(a)
			}
			put(c.C)
			put(float64(c.Op))
		}
	}
	in.rel.Scan(func(t *constraint.Tuple) bool {
		hs(t.Constraints())
		return true
	})
	for _, cons := range in.templates {
		hs(cons)
	}
	for _, q := range in.queries {
		put(float64(q.Kind))
		put(q.Slope[0])
		put(q.Intercept)
		put(float64(q.Op))
	}
	return h.Sum64()
}

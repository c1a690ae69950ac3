// Package dualcdb is a linear constraint database engine with
// dual-representation indexing, reproducing Bertino, Catania and
// Chidlovskii, "Indexing Constraint Databases by Using a Dual
// Representation" (ICDE 1999).
//
// A relation stores generalized tuples — conjunctions of linear
// constraints over real variables, i.e. convex polyhedra that may be
// unbounded. The index answers the two selection types of constraint
// query languages against a query half-plane q:
//
//	ALL(q, r)   — tuples whose extension is contained in q
//	EXIST(q, r) — tuples whose extension intersects q
//
// both in O(log_B n + t) page accesses when the query slope belongs to a
// predefined set S, and by two approximation techniques (T1 and T2, the
// paper's contribution) otherwise. An R⁺-tree baseline and the paper's
// workload generators are included; cmd/experiments regenerates every
// figure.
//
// Quick start:
//
//	rel := dualcdb.NewRelation(2)
//	t, _ := dualcdb.ParseTuple("x >= 0 && y >= 0 && x + y <= 4", 2)
//	idx, _ := dualcdb.NewIndex(rel, dualcdb.IndexOptions{
//		Slopes: dualcdb.EquiangularSlopes(3),
//	})
//	idx.Insert(t)
//	res, _ := idx.Query(dualcdb.Exist2(0.5, 1, dualcdb.GE)) // y ≥ 0.5x + 1 ?
//	fmt.Println(res.IDs)
package dualcdb

import (
	"net/http"

	"dualcdb/internal/constraint"
	"dualcdb/internal/core"
	"dualcdb/internal/geom"
	"dualcdb/internal/obs"
	"dualcdb/internal/pagestore"
	"dualcdb/internal/rplustree"
	"dualcdb/internal/workload"
)

// Core model types.
type (
	// Tuple is a generalized tuple: a conjunction of linear constraints.
	Tuple = constraint.Tuple
	// TupleID identifies a tuple within a relation.
	TupleID = constraint.TupleID
	// Relation is a set of generalized tuples over one variable space, held
	// once: an index over it publishes each version as a frozen view of the
	// relation's own table and aborts a batch by setting the relation back to
	// the last one. Once a relation is indexed, write to it only through that
	// one index. Scan and IDs go in id order; ids are never reused.
	Relation = constraint.Relation
	// Query is an ALL/EXIST half-plane selection.
	Query = constraint.Query
	// QueryKind is ALL or EXIST.
	QueryKind = constraint.QueryKind
	// HalfSpace is a single linear constraint a·x + c θ 0.
	HalfSpace = geom.HalfSpace
	// Op is a constraint operator (LE or GE).
	Op = geom.Op
	// Polyhedron is a tuple extension in vertex/ray representation.
	Polyhedron = geom.Polyhedron
	// Point is a point in E^d.
	Point = geom.Point
)

// Re-exported constants.
const (
	// LE is the operator "≤ 0".
	LE = geom.LE
	// GE is the operator "≥ 0".
	GE = geom.GE
	// EXIST selections retrieve intersecting tuples.
	EXIST = constraint.EXIST
	// ALL selections retrieve contained tuples.
	ALL = constraint.ALL
)

// NewRelation creates an empty relation over E^dim.
func NewRelation(dim int) *Relation { return constraint.NewRelation(dim) }

// NewTuple builds a generalized tuple from constraints.
func NewTuple(dim int, cons []HalfSpace) (*Tuple, error) { return constraint.NewTuple(dim, cons) }

// ParseTuple parses the textual constraint syntax, e.g.
// "x >= 0 && y >= 0 && x + y <= 4".
func ParseTuple(s string, dim int) (*Tuple, error) { return constraint.ParseTuple(s, dim) }

// ParseConstraints parses a conjunction into individual constraints.
func ParseConstraints(s string, dim int) ([]HalfSpace, error) {
	return constraint.ParseConstraints(s, dim)
}

// NewQuery builds a d-dimensional half-plane selection
// Q(x_d θ slope·x + intercept).
func NewQuery(kind QueryKind, slope []float64, intercept float64, op Op) Query {
	return constraint.NewQuery(kind, slope, intercept, op)
}

// Exist2 builds the 2-D selection EXIST(y op a·x + b).
func Exist2(a, b float64, op Op) Query { return constraint.Query2(constraint.EXIST, a, b, op) }

// All2 builds the 2-D selection ALL(y op a·x + b).
func All2(a, b float64, op Op) Query { return constraint.Query2(constraint.ALL, a, b, op) }

// The dual-representation index (the paper's contribution).
type (
	// Index is the dual-representation index: one engine — bulk load,
	// atomic commits, snapshot reads, T1/T2 query processing — for every
	// dimension. NewIndex/BuildIndex create it over a 2-D slope set,
	// NewIndexD/BuildIndexD over a site set in E^{d−1}.
	Index = core.Index
	// IndexOptions configures a 2-D Index.
	IndexOptions = core.Options
	// Technique selects T1, T2 or restricted-only processing.
	Technique = core.Technique
	// Result is a selection answer with execution statistics.
	Result = core.Result
	// QueryStats describes how a selection executed.
	QueryStats = core.QueryStats
	// BatchOptions tunes Index.QueryBatch's worker pool; the zero value
	// selects GOMAXPROCS workers.
	BatchOptions = core.BatchOptions
	// Snapshot is a pinned, immutable read view of one committed index
	// version: queries on it are repeatable and unaffected by concurrent
	// commits. Obtain with Index.Snapshot, release promptly (DESIGN.md
	// §13).
	Snapshot = core.Snapshot
	// Commit is a writer batch: stage Insert/Delete against Index.Begin's
	// batch, then Commit publishes all of it as one new version (or Abort
	// discards it invisibly).
	Commit = core.Commit
)

// Technique constants.
const (
	// T2 is the single-tree handicap technique (Section 4.2, default).
	T2 = core.T2
	// T1 is the two-app-query technique (Section 4.1).
	T1 = core.T1
	// RestrictedOnly supports only query slopes in S (Section 3).
	RestrictedOnly = core.RestrictedOnly
)

// ErrTupleRange is what Insert, the Build functions and OpenDatabase return
// (wrapped; test with errors.Is) for a tuple with a vertex or ray coordinate
// that is not finite or beyond 1e6 in magnitude. Such a tuple is never
// indexed.
var ErrTupleRange = core.ErrTupleRange

// ErrIDLimit is what Relation.Insert, Index.Insert and OpenDatabase return
// (wrapped; test with errors.Is) for a tuple id past 1<<24: a relation has
// assigned that many, or a damaged file claims one.
var ErrIDLimit = constraint.ErrIDLimit

// ErrCatalog is what OpenDatabase returns (wrapped; test with errors.Is) for
// a file whose catalog this version did not write: another format — a
// DCDB0005 or older file — a file that holds a vertical tree pair (rebuild
// it), or a damaged catalog page.
var ErrCatalog = core.ErrCatalog

// d-dimensional index (Section 4.4) and generalized-tuple selections.
type (
	// IndexD is the Index as the d-dimensional constructors return it
	// (Section 4.4) — the same type, so Begin/Commit, Snapshot and
	// QueryBatch apply. Save, T1 and the line, tuple and vertical
	// selections are 2-D-only and return an error in dimension > 2.
	IndexD = core.IndexD
	// IndexDOptions configures a d-dimensional Index.
	IndexDOptions = core.OptionsD
	// TupleResult is the answer of a generalized-tuple selection.
	TupleResult = core.TupleResult
	// QueryTupleStats describes a generalized-tuple execution.
	QueryTupleStats = core.QueryTupleStats
)

// NewIndexD creates an empty d-dimensional dual index over rel, which must
// hold no tuple: the index covers only the tuples inserted through it, so a
// relation that already has tuples is an error — BuildIndexD indexes them.
func NewIndexD(rel *Relation, opt IndexDOptions) (*IndexD, error) { return core.NewD(rel, opt) }

// BuildIndexD bulk-loads a d-dimensional dual index.
func BuildIndexD(rel *Relation, opt IndexDOptions) (*IndexD, error) { return core.BuildD(rel, opt) }

// LatticeSites returns a regular grid of slope-space sites for IndexD.
func LatticeSites(sdim, perAxis int, extent float64) []Point {
	return core.LatticeSites(sdim, perAxis, extent)
}

// EvalTuple is the exhaustive ground truth for generalized-tuple
// selections.
func EvalTuple(kind QueryKind, qt *Tuple, rel *Relation) ([]TupleID, error) {
	return core.EvalTuple(kind, qt, rel)
}

// NewIndex creates an empty dual index over rel, which must hold no tuple:
// the index covers only the tuples inserted through it, so a relation that
// already has tuples is an error — BuildIndex indexes them.
func NewIndex(rel *Relation, opt IndexOptions) (*Index, error) { return core.New(rel, opt) }

// BuildIndex bulk-loads a dual index from the relation's current tuples.
func BuildIndex(rel *Relation, opt IndexOptions) (*Index, error) { return core.Build(rel, opt) }

// EquiangularSlopes returns k slopes at equally spaced angles — the
// natural predefined set S for uniformly distributed query slopes.
func EquiangularSlopes(k int) []float64 { return core.EquiangularSlopes(k) }

// R⁺-tree baseline (Section 5's comparison structure).
type (
	// RPlusIndex is the relation-aware R⁺-tree baseline.
	RPlusIndex = rplustree.Index
	// RPlusOptions configures an RPlusIndex.
	RPlusOptions = rplustree.Options
)

// BuildRPlusIndex bulk-loads an R⁺-tree over the relation's bounded tuples.
// The tree is read-only, as in the paper's experiments: it does not follow
// later writes to rel, so build a new one after them.
func BuildRPlusIndex(rel *Relation, opt RPlusOptions) (*RPlusIndex, error) {
	return rplustree.Build(rel, opt)
}

// Workload generation (Section 5's synthetic data).
type (
	// WorkloadConfig parameterizes relation generation.
	WorkloadConfig = workload.Config
	// QueryWorkloadConfig parameterizes calibrated query generation.
	QueryWorkloadConfig = workload.QueryConfig
	// SizeClass is the paper's small/medium object regime.
	SizeClass = workload.SizeClass
)

// Size-regime constants.
const (
	// SmallObjects cover 1–5 % of the working window.
	SmallObjects = workload.Small
	// MediumObjects cover 5–50 % of the working window.
	MediumObjects = workload.Medium
)

// GenerateRelation builds a deterministic random relation per the paper's
// Section 5 parameters.
func GenerateRelation(cfg WorkloadConfig) (*Relation, error) { return workload.GenerateRelation(cfg) }

// GenerateQueries builds half-plane queries calibrated to a selectivity.
func GenerateQueries(rel *Relation, qc QueryWorkloadConfig) ([]Query, error) {
	return workload.GenerateQueries(rel, qc)
}

// WorkloadConfigD parameterizes d-dimensional relation generation.
type WorkloadConfigD = workload.ConfigD

// GenerateRelationD builds a deterministic random d-dimensional relation.
func GenerateRelationD(cfg WorkloadConfigD) (*Relation, error) {
	return workload.GenerateRelationD(cfg)
}

// GenerateQueriesD builds calibrated d-dimensional half-plane queries with
// slope vectors uniform in [−slopeExtent, slopeExtent]^{d−1}.
func GenerateQueriesD(rel *Relation, qc QueryWorkloadConfig, slopeExtent float64) ([]Query, error) {
	return workload.GenerateQueriesD(rel, qc, slopeExtent)
}

// EvalLine is the exhaustive ground truth for line-stabbing selections
// (Index.QueryLine).
func EvalLine(a, b float64, rel *Relation) ([]TupleID, error) { return core.EvalLine(a, b, rel) }

// EvalVertical is the exhaustive ground truth for vertical selections
// Kind(x op c) (Index.QueryVertical, which scans the same way: a vertical
// line has no dual point).
func EvalVertical(kind QueryKind, op Op, c float64, rel *Relation) ([]TupleID, error) {
	return core.EvalVertical(kind, op, c, rel)
}

// Observability layer (metrics registry, per-query and per-commit
// tracing, slow-query and slow-commit logs, commit flight recorder,
// Prometheus exposition, debug server).
type (
	// Observer aggregates per-query metrics, stage-span latencies and
	// slow-query traces — and on the write path, per-commit stage
	// traces with exact page clone/free attribution, MVCC health
	// histograms and the commit flight recorder — for one index; attach
	// it with IndexOptions.Observe or Index.SetObserver. A nil
	// *Observer is valid everywhere and costs nothing on the query or
	// commit path.
	Observer = obs.Observer
	// ObserverOptions configures an Observer: its name, the slow
	// threshold and the slow-record logger. Every trace ring (slow
	// queries, the commit flight recorder, slow commits) keeps the
	// newest 64 traces.
	ObserverOptions = obs.Options
	// ObserverSnapshot is a point-in-time read of an Observer.
	ObserverSnapshot = obs.Snapshot
	// TraceSnapshot is one retained per-query trace with its stage
	// spans.
	TraceSnapshot = obs.TraceSnapshot
	// CommitTraceSnapshot is one retained per-commit trace: the
	// stage/shadow/publish/reclaim spans (and stage's keys/trees/merge
	// children) with per-stage page clone/free attribution, plus the
	// batch outcome (published version, or abort with its cause).
	CommitTraceSnapshot = obs.CommitTraceSnapshot
	// FlightDump is the /debug/flight document: recent commit traces
	// plus the slow-or-aborted subset.
	FlightDump = obs.FlightDump
	// StatsSnapshot is the unified observability view of one Index
	// (shape, pool, caches, sweeps, MVCC health, observer aggregates).
	StatsSnapshot = core.StatsSnapshot
	// MVCCStats is the version/watermark health view of the MVCC layer
	// (published vs pinned version lag, reclaim backlog, COW totals).
	MVCCStats = core.MVCCStats
)

// NewObserver creates a metrics-and-tracing observer.
func NewObserver(opt ObserverOptions) *Observer { return obs.New(opt) }

// DebugMux builds the live debug server's handler: /debug/stats (the
// stats callback's JSON), /debug/metrics, /debug/traces, /debug/prom
// (Prometheus text exposition of the registry plus a runtime/metrics
// bridge), /debug/flight (the commit flight recorder) and /debug/pprof.
// Either argument may be nil.
func DebugMux(stats func() any, o *Observer) *http.ServeMux { return obs.DebugMux(stats, o) }

// DefaultPageSize is the paper's 1024-byte page size.
const DefaultPageSize = pagestore.DefaultPageSize

// CreateDatabase builds a dual index over rel backed by a new database
// file at path. Call (*Index).Save to persist the catalog and the relation
// after loading or updating.
func CreateDatabase(path string, rel *Relation, opt IndexOptions) (*Index, error) {
	store, err := pagestore.OpenFileStore(path, opt.PageSize)
	if err != nil {
		return nil, err
	}
	opt.Store = store
	return core.Build(rel, opt)
}

// OpenDatabase reopens a database file written by CreateDatabase + Save,
// returning the restored relation and index. The index gets the buffer
// pool CreateDatabase gives one with PoolPages unset.
func OpenDatabase(path string, pageSize int) (*Relation, *Index, error) {
	store, err := pagestore.OpenExistingFileStore(path, pageSize)
	if err != nil {
		return nil, nil, err
	}
	return core.Open(core.DefaultPool(store))
}

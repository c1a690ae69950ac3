package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"dualcdb/internal/constraint"
	"dualcdb/internal/geom"
	"dualcdb/internal/obs"
	"dualcdb/internal/pagestore"
)

// Model test for engine histories, in the shape of btree/model_test.go: a
// byte string is a history of batches, inserts of every kind of tuple,
// deletes, pinned snapshots, queries — half-plane, line-stabbing,
// generalized-tuple and vertical ones — handicap rebuilds and Save + Open
// over one index, and after every step the current version and every pinned
// snapshot must answer exactly as a naive scan over a model of that
// version's tuples does: Proposition 2.2's, or the exact predicate of the
// other selections. At the end of a history the store holds the live
// version's pages and nothing else. There is no exception for any slope,
// intercept or shape: on a site, one ulp or Eps/2 off it, on strip borders
// and outside, at a tuple's surface value ± Eps ± one ulp, for tuples whose
// envelope and support scan disagree and for a triangle 9e5 out, where
// Eps/2 of slope moves the value by 4.5e-4.

const (
	eoBegin = iota
	eoCommit
	eoAbort
	eoInsert // kind, arg
	eoDelete // position
	eoPin
	eoUnpin // position
	eoQuery // shape, slope selector, slope argument, intercept selector, intercept argument
	eoBatch // n, then n queries
	eoRebuild
	eoReopen
	eoLine     // shape, slope selector, slope argument, intercept selector, intercept argument
	eoTuple    // kind, n, then n × (shape, slope selector, slope argument, intercept selector, intercept argument)
	eoVertical // shape, position, intercept selector
	numEngineOps
)

// Insert kinds. In E³ the planar shapes fall back to a random box.
const (
	tkBounded = iota
	tkUnbounded
	tkUnsatisfiable
	tkPointLow  // (0, 0.1·arg): a filler below alignedVertices' keys
	tkPointHigh // (0, 10 + 1e-9 + arg): between alignedVertices' key at a site and its value nearby, and above
	tkSegment
	tkVerticalRay
	tkSteepCone
	tkAligned
	tkFarTriangle
	tkTinyPoint // (0, −5e-26): an ulp of the key is far finer than one of key + Eps
	tkOutOfRange
	tkFarOnSite // (x, s·x ± 1e-3) for a site s, x in [1e5, 9e5): a key at s below 1e-3, while Δ·x rounds by an ulp of 1e8
	numTupleKinds
)

// maxSnapshots bounds the snapshots a history holds; pinning one more
// releases the oldest.
const maxSnapshots = 3

type pinnedSnapshot struct {
	snap  *Snapshot
	model []*constraint.Tuple
}

// engineCoverage records what a set of histories reached.
type engineCoverage struct {
	paths                                 map[string]int
	technique                             Technique
	reopened, aborted, refused, sameBatch bool
	refusedSave                           bool
	sweptPinned, twoLevels, onSite        bool
	lines, tuples, verticals              int // answers with some id
}

type engineHistory struct {
	t    testing.TB
	c    engineCase
	data []byte
	rng  *rand.Rand
	path string // the 2-D cases' page file
	file *pagestore.FileStore
	rel  *constraint.Relation // the caller's: what ix was built over or Open returned
	ix   *Index
	obs  *obs.Observer

	// leaked counts the pages a reopened file holds that no structure
	// references: OpenExistingFileStore counts every page of the file live.
	leaked int

	batch  *Commit
	live   []*constraint.Tuple // the published version's tuples, ascending by id
	staged []*constraint.Tuple // the open batch's
	born   map[constraint.TupleID]bool
	pins   []pinnedSnapshot
	cov    *engineCoverage
}

func (h *engineHistory) next() int {
	if len(h.data) == 0 {
		return 0
	}
	b := h.data[0]
	h.data = h.data[1:]
	return int(b)
}

func (h *engineHistory) fatalf(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("%s: "+format, append([]any{h.c.name}, args...)...)
}

// tuple builds the tuple of an insert operation. Apart from alignedVertices
// every shape is given by constraints, so that a reopened relation computes
// the very extension its keys were computed from.
func (h *engineHistory) tuple(kind, arg int) *constraint.Tuple {
	cons := func(hs ...geom.HalfSpace) *constraint.Tuple {
		tp, err := constraint.NewTuple(h.c.dim, hs)
		if err != nil {
			h.fatalf("tuple kind %d: %v", kind, err)
		}
		return tp
	}
	box := func(lo, hi geom.Point) *constraint.Tuple { return boxTuple(h.t, lo, hi) }
	point := func(p geom.Point) *constraint.Tuple { return box(p, p) }
	if h.c.dim == 3 {
		switch kind {
		case tkUnbounded:
			return h.c.tuple(h.rng, true)
		case tkUnsatisfiable:
			return box(geom.Point{1, 0, 0}, geom.Point{0, 1, 1})
		case tkPointLow, tkPointHigh, tkTinyPoint:
			return point(geom.Point{float64(arg%7 - 3), 2, 0.1 * float64(arg)})
		case tkSegment:
			return box(geom.Point{-4, 1, float64(arg) / 16}, geom.Point{6, 1, float64(arg) / 16})
		case tkOutOfRange:
			return box(geom.Point{0, 0, 2e6}, geom.Point{1, 1, 3e6})
		}
		return h.c.tuple(h.rng, false)
	}
	switch kind {
	case tkUnbounded:
		return h.c.tuple(h.rng, true)
	case tkUnsatisfiable:
		return box(geom.Point{1, 0}, geom.Point{0, 1})
	case tkPointLow:
		return point(geom.Point{0, 0.1 * float64(arg)})
	case tkPointHigh:
		return point(geom.Point{0, 10 + 1e-9 + float64(arg)})
	case tkSegment:
		return box(geom.Point{-4 + float64(arg)/16, 1}, geom.Point{6, 1})
	case tkVerticalRay: // x = c, y ≥ 2
		c := float64(arg%9 - 4)
		return cons(geom.HalfPlane2(1, 0, -c, geom.GE), geom.HalfPlane2(1, 0, -c, geom.LE), geom.HalfPlane2(0, 1, -2, geom.GE))
	case tkSteepCone:
		return steepCone(h.t)
	case tkAligned:
		return alignedVertices(h.t)
	case tkFarTriangle: // (9e5, 0), (9e5+1, 0), (9e5, 1)
		return cons(geom.HalfPlane2(1, 0, -9e5, geom.GE), geom.HalfPlane2(0, 1, 0, geom.GE), geom.HalfPlane2(1, 1, -(9e5+1), geom.LE))
	case tkTinyPoint:
		return point(geom.Point{0, -5e-26})
	case tkOutOfRange:
		return box(geom.Point{0, 0}, geom.Point{2e6, 1})
	case tkFarOnSite:
		sites := h.ix.Slopes()
		s, x := sites[arg%len(sites)], 1e5+h.rng.Float64()*8e5
		return point(geom.Point{x, s*x + (h.rng.Float64()*2-1)*1e-3})
	}
	return h.c.tuple(h.rng, false)
}

// current is the tuple list mutations apply to: the open batch's, or the
// published version's.
func (h *engineHistory) current() *[]*constraint.Tuple {
	if h.batch != nil {
		return &h.staged
	}
	return &h.live
}

func (h *engineHistory) begin() {
	h.batch = h.ix.Begin()
	h.staged = slices.Clone(h.live)
	h.born = map[constraint.TupleID]bool{}
}

func (h *engineHistory) commit() {
	if err := h.batch.Commit(); err != nil {
		h.fatalf("commit: %v", err)
	}
	h.batch, h.live = nil, h.staged
}

func (h *engineHistory) abort() {
	if err := h.batch.Abort(); err != nil {
		h.fatalf("abort: %v", err)
	}
	h.batch, h.cov.aborted = nil, true
}

func (h *engineHistory) insert(kind, arg int) {
	tp := h.tuple(kind, arg)
	var id constraint.TupleID
	var err error
	if h.batch != nil {
		id, err = h.batch.Insert(tp)
	} else {
		id, err = h.ix.Insert(tp)
	}
	if kind == tkOutOfRange {
		if !errors.Is(err, ErrTupleRange) {
			h.fatalf("insert of %v: %v, want ErrTupleRange", tp, err)
		}
		h.cov.refused = true
		if h.batch != nil { // a failed mutation ends its batch
			h.abort()
		}
		return
	}
	if err != nil {
		h.fatalf("insert %v: %v", tp, err)
	}
	cur := h.current()
	if n := len(*cur); n > 0 && (*cur)[n-1].ID() >= id {
		h.fatalf("insert returned id %d after %d", id, (*cur)[n-1].ID())
	}
	*cur = append(*cur, tp)
	if h.batch != nil {
		h.born[id] = true
	}
}

func (h *engineHistory) delete(at int) {
	cur := h.current()
	if len(*cur) == 0 {
		return
	}
	i := at * len(*cur) / 256
	id := (*cur)[i].ID()
	var err error
	if h.batch != nil {
		err = h.batch.Delete(id)
		h.cov.sameBatch = h.cov.sameBatch || h.born[id]
	} else {
		err = h.ix.Delete(id)
	}
	if err != nil {
		h.fatalf("delete %d: %v", id, err)
	}
	*cur = slices.Delete(slices.Clone(*cur), i, i+1) // pinned models share the old array
}

func (h *engineHistory) unpin(i int) {
	h.pins[i].snap.Release()
	h.pins = slices.Delete(h.pins, i, i+1)
}

// slope decodes a query slope: on a site, one ulp or Eps/2 off it, on the
// border of its cell, inside the cell, outside every cell, or anywhere.
func (h *engineHistory) slope(sel, arg int) []float64 {
	if sites := h.ix.Sites(); sites != nil {
		s := sites[arg%len(sites)].Clone()
		switch sel % 8 {
		case 0:
			h.cov.onSite = true
		case 1:
			s[0] = math.Nextafter(s[0], math.Inf(1-arg&2))
		case 2:
			s[1] += geom.Eps / 2
		case 3:
			s[0] += 0.75 // midway to the next lattice site, or the cell's outer border
		case 4:
			s[0] += float64(arg%11-5) * 0.14
			s[1] -= float64(arg%7-3) * 0.2
		case 5:
			return []float64{50, -50 - float64(arg)}
		default:
			return []float64{float64(arg-128) / 40, float64(arg*7%256-128) / 40}
		}
		return s
	}
	g := h.ix.geo.(*slopeSet)
	i := arg % len(g.s)
	a := g.s[i]
	lo, hi := g.stripBounds(i)
	switch sel % 8 {
	case 0:
		h.cov.onSite = true
	case 1:
		a = math.Nextafter(a, math.Inf(1))
	case 2:
		a = math.Nextafter(a, math.Inf(-1))
	case 3:
		a += geom.Eps / 2 * float64(1-arg&2)
	case 4:
		if a = lo; arg&4 != 0 {
			a = hi
		}
	case 5:
		a = lo + (hi-lo)*(0.05+0.9*float64(arg)/255)
	case 6:
		a = float64(3+arg) * float64(1-arg&2)
	default:
		a = math.Tan((float64(arg)/255 - 0.5) * (math.Pi - 0.2))
	}
	return []float64{a}
}

// Intercept selectors: the low three bits pick the mode, the next two an ulp
// up (1) or down (2), and onOldest aims at one of the three oldest tuples —
// a seed's named shapes — instead of any.
const (
	atValue    = 1 // the tuple's surface value at the query slope
	abovByEps  = 2
	belowByEps = 3
	abovBy2Eps = 4
	infinite   = 6
	ulpUp      = 1 << 3
	ulpDown    = 2 << 3
	onOldest   = 1 << 5
)

// intercept decodes a query intercept: anywhere, infinite, or on the edge
// of the predicate for one tuple — its surface value at the query slope,
// plus or minus Eps, plus or minus an ulp.
func (h *engineHistory) intercept(q constraint.Query, sel, arg int) float64 {
	mode := sel & 7
	if mode == infinite {
		return math.Inf(1 - arg&2)
	}
	if mode < atValue || mode > abovBy2Eps || len(h.live) == 0 {
		return float64(arg-128) * 0.5
	}
	tp := h.live[arg*len(h.live)/256]
	if sel&onOldest != 0 && len(h.live) > 2 {
		tp = h.live[arg%3]
	}
	v, err := q.SurfaceValue(tp)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	v += [...]float64{0, geom.Eps, -geom.Eps, 2 * geom.Eps}[mode-atValue]
	switch sel & (3 << 3) {
	case ulpUp:
		v = math.Nextafter(v, math.Inf(1))
	case ulpDown:
		v = math.Nextafter(v, math.Inf(-1))
	}
	return v
}

func (h *engineHistory) decodeQuery() constraint.Query {
	shape, ssel, sarg, bsel, barg := h.next(), h.next(), h.next(), h.next(), h.next()
	kind, op := constraint.EXIST, geom.GE
	if shape&1 != 0 {
		kind = constraint.ALL
	}
	if shape&2 != 0 {
		op = geom.LE
	}
	q := constraint.NewQuery(kind, h.slope(ssel, sarg), 0, op)
	q.Intercept = h.intercept(q, bsel, barg)
	return q
}

// scan is the model's answer: Proposition 2.2 over every tuple.
func (h *engineHistory) scan(q constraint.Query, model []*constraint.Tuple) []constraint.TupleID {
	var want []constraint.TupleID
	for _, tp := range model {
		ok, err := q.Matches(tp)
		if err != nil {
			h.fatalf("%v on tuple %d: %v", q, tp.ID(), err)
		}
		if ok {
			want = append(want, tp.ID())
		}
	}
	return want
}

// checkResult compares one answer with the model and checks the identities
// of its statistics; evaluated < 0: not measured.
func (h *engineHistory) checkResult(what string, q constraint.Query, got Result, model []*constraint.Tuple, evaluated int) {
	want := h.scan(q, model)
	st := got.Stats
	if !sameIDs(got.IDs, want) {
		h.fatalf("%s %v [%s]: got %v, the scan %v", what, q, st.Path, got.IDs, want)
	}
	if evaluated < 0 { // not measured: what the sweeps left to the predicate
		evaluated = st.Candidates - st.Duplicates - st.Decided
	}
	if st.Results != len(want) || st.FalseHits < 0 || evaluated != st.FalseHits+st.Results-st.Sure {
		h.fatalf("%s %v: accounting %+v for %d results, %d evaluated", what, q, st, len(want), evaluated)
	}
	if st.Candidates-st.Duplicates != st.Decided+evaluated {
		h.fatalf("%s %v: %d distinct candidates, %d decided, %d evaluated: %+v", what, q, st.Candidates-st.Duplicates, st.Decided, evaluated, st)
	}
	if slack := atRoundedBound(q, model); st.Path == "restricted" && !onSiteSettled(st, slack) {
		h.fatalf("%s %v: on a site %+v with %d stored keys at the rounded bound; want every other entry settled on its key", what, q, st, slack)
	}
	if h.c.dim == 2 && st.Path != "t1" && st.Duplicates != 0 {
		h.fatalf("%s %v: %d duplicates on path %s", what, q, st.Duplicates, st.Path)
	}
	h.cov.paths[st.Path]++
}

// evaluated reads the latest query's refine span off the observer.
func (h *engineHistory) evaluated() int { return refineItems(h.obs) }

// query runs q on the published version and on every pinned snapshot.
func (h *engineHistory) query(q constraint.Query) {
	got, err := h.ix.Query(q)
	if err != nil {
		h.fatalf("%v: %v", q, err)
	}
	h.checkResult("live", q, got, h.live, h.evaluated())
	for _, p := range h.pins {
		got, err := p.snap.Query(q)
		if err != nil {
			h.fatalf("snapshot %d, %v: %v", p.snap.Version(), q, err)
		}
		h.checkResult(fmt.Sprintf("snapshot %d", p.snap.Version()), q, got, p.model, h.evaluated())
		h.cov.sweptPinned = h.cov.sweptPinned || p.snap.Version() < h.ix.roots.Load().version
	}
}

func (h *engineHistory) queryBatch(n int) {
	qs := make([]constraint.Query, n)
	for i := range qs {
		qs[i] = h.decodeQuery()
	}
	got, err := h.ix.QueryBatch(qs, BatchOptions{Workers: 2})
	if err != nil || len(got) != n {
		h.fatalf("batch of %d: %d results, %v", n, len(got), err)
	}
	for i, q := range qs {
		h.checkResult("batch", q, got[i], h.live, -1)
	}
	for _, p := range h.pins {
		got, err := p.snap.QueryBatch(qs, BatchOptions{Workers: 1})
		if err != nil || len(got) != n {
			h.fatalf("snapshot batch of %d: %d results, %v", n, len(got), err)
		}
		for i, q := range qs {
			h.checkResult("snapshot batch", q, got[i], p.model, -1)
		}
	}
}

// reopen saves the index, closes its file and opens it again: the reopened
// relation must hold the same tuples under the same ids, and becomes the
// model. While alignedVertices is live — a tuple given by vertices and a ray
// has no constraints to persist — Save must refuse and change nothing.
func (h *engineHistory) reopen() {
	for _, tp := range h.live {
		if !tp.HasHRep() {
			if err := h.ix.Save(); !errors.Is(err, geom.ErrNoHRep) {
				h.fatalf("save with tuple %d, which has no constraints: %v, want geom.ErrNoHRep", tp.ID(), err)
			}
			h.cov.refusedSave = true
			return
		}
	}
	for len(h.pins) > 0 {
		h.unpin(0)
	}
	if err := h.ix.Save(); err != nil {
		h.fatalf("save: %v", err)
	}
	if err := h.file.Close(); err != nil {
		h.fatalf("close: %v", err)
	}
	file, err := pagestore.OpenExistingFileStore(h.path, pagestore.DefaultPageSize)
	if err != nil {
		h.fatalf("reopen: %v", err)
	}
	h.file = file
	rel, ix, err := Open(pagestore.NewPool(file, 1<<12))
	if err != nil {
		h.fatalf("open: %v", err)
	}
	var reopened []*constraint.Tuple
	rel.Scan(func(tp *constraint.Tuple) bool {
		reopened = append(reopened, tp)
		return true
	})
	if len(reopened) != len(h.live) {
		h.fatalf("reopened %d tuples, saved %d", len(reopened), len(h.live))
	}
	for i, tp := range reopened {
		if was := h.live[i]; tp.ID() != was.ID() || tp.String() != was.String() {
			h.fatalf("reopened tuple %d: %v, saved %d: %v", tp.ID(), tp, was.ID(), was)
		}
	}
	h.rel, h.ix, h.live, h.cov.reopened = rel, ix, reopened, true
	h.leaked = file.NumAllocated() - storedPages(h.ix)
	ix.SetObserver(h.obs)
}

// storedPages is what an index references in its store: its trees' pages,
// the catalog page and the saved tuple chain.
func storedPages(ix *Index) int {
	return ix.Pages() + ix.dataPages + 1
}

// answers runs one selection on the published version and on every pinned
// snapshot, and compares each answer with eval over that version's model. A
// tuple eval cannot decide for want of constraints (geom.ErrNoHRep) makes
// that error the only right answer.
func (h *engineHistory) answers(what string, run func(querier) ([]constraint.TupleID, error), eval func(*constraint.Tuple) (bool, error)) int {
	check := func(who string, q querier, model []*constraint.Tuple) int {
		got, err := run(q)
		var want []constraint.TupleID
		var undecided *constraint.Tuple
		for _, tp := range model {
			ok, err := eval(tp)
			if errors.Is(err, geom.ErrNoHRep) {
				undecided = tp
				continue
			}
			if err != nil {
				h.fatalf("%s on tuple %d: %v", what, tp.ID(), err)
			}
			if ok {
				want = append(want, tp.ID())
			}
		}
		if undecided != nil {
			if !errors.Is(err, geom.ErrNoHRep) {
				h.fatalf("%s %s: %v, %v; the scan cannot decide tuple %d, want geom.ErrNoHRep", who, what, got, err, undecided.ID())
			}
			return 0
		}
		if err != nil {
			h.fatalf("%s %s: %v", who, what, err)
		}
		if !sameIDs(got, want) {
			h.fatalf("%s %s: got %v, the scan %v", who, what, got, want)
		}
		return len(want)
	}
	n := check("live", h.ix, h.live)
	for _, p := range h.pins {
		check(fmt.Sprintf("snapshot %d", p.snap.Version()), p.snap, p.model)
	}
	return n
}

// querier is what an Index and a Snapshot share of the compound selections.
type querier interface {
	QueryLine(a, b float64) (Result, error)
	QueryTuple(kind constraint.QueryKind, qt *constraint.Tuple) (TupleResult, error)
	QueryVertical(kind constraint.QueryKind, op geom.Op, c float64) (Result, error)
}

// line decodes and checks a line stab: its slope as a query's, its intercept
// on the edge of a tuple's TOP (shape even) or BOT at that slope.
func (h *engineHistory) line() {
	q := h.decodeQuery()
	if h.c.dim != 2 {
		return
	}
	a, b := q.Slope[0], q.Intercept
	n := h.answers(fmt.Sprintf("line y = %v·x + %v", a, b), func(qr querier) ([]constraint.TupleID, error) {
		r, err := qr.QueryLine(a, b)
		return r.IDs, err
	}, func(tp *constraint.Tuple) (bool, error) {
		bot, err := tp.Bot([]float64{a})
		top, _ := tp.Top([]float64{a})
		return bot <= b+geom.Eps && b-geom.Eps <= top, err
	})
	h.cov.lines += min(n, 1)
}

// tuple decodes and checks a generalized-tuple selection: ALL or EXIST of a
// conjunction of one to three constraints, each a decoded query's half-plane
// y op a·x + b or, shape bit 2, the vertical x op b.
func (h *engineHistory) tupleQuery() {
	kind := constraint.QueryKind(h.next() & 1)
	n := 1 + h.next()%3
	var hs []geom.HalfSpace
	for i := 0; i < n; i++ {
		shape := h.data
		q := h.decodeQuery()
		if math.IsInf(q.Intercept, 0) {
			q.Intercept = 0 // a constraint's constant is finite
		}
		switch {
		case len(shape) > 0 && shape[0]&4 != 0:
			hs = append(hs, geom.HalfPlane2(1, 0, -q.Intercept, q.Op))
		default:
			hs = append(hs, geom.HalfPlane2(-q.Slope[0], 1, -q.Intercept, q.Op))
		}
	}
	if h.c.dim != 2 {
		return
	}
	qt, err := constraint.NewTuple(2, hs)
	if err != nil {
		h.fatalf("query tuple over %v: %v", hs, err)
	}
	qext, err := qt.Extension()
	if err != nil {
		h.fatalf("query tuple %v: %v", qt, err)
	}
	c := h.answers(fmt.Sprintf("%v(%v)", kind, qt), func(qr querier) ([]constraint.TupleID, error) {
		r, err := qr.QueryTuple(kind, qt)
		return r.IDs, err
	}, func(tp *constraint.Tuple) (bool, error) {
		switch {
		case qext.IsEmpty():
			return false, nil
		case kind == constraint.ALL:
			return constraint.TupleALL(qt, tp)
		}
		ok, err := constraint.TupleEXIST(qt, tp)
		if errors.Is(err, geom.ErrNoHRep) {
			// The index refines only what every per-constraint selection
			// keeps: one that misses tp answers for it.
			for i := range qt.NumConstraints() {
				slope, icpt, op, serr := qt.Constraint(i).SlopeForm()
				if serr != nil {
					continue
				}
				if meets, _ := constraint.NewQuery(constraint.EXIST, slope, icpt, op).Matches(tp); !meets {
					return false, nil
				}
			}
		}
		return ok, err
	})
	h.cov.tuples += min(c, 1)
}

// vertical decodes and checks a vertical selection Kind(x op c): c on the
// edge of a tuple's infX or supX — plus or minus Eps — or anywhere.
func (h *engineHistory) vertical() {
	shape, at, sel := h.next(), h.next(), h.next()
	kind, op := constraint.QueryKind(shape&1), geom.Op(shape>>1&1)
	c := float64(at-128) * 0.5
	if len(h.live) > 0 && sel&3 != 0 {
		x := xExtent(h.live[at*len(h.live)/256])
		c = x[sel>>2&1] + float64(sel&3-2)*geom.Eps
		if math.IsInf(c, 0) {
			c = 0
		}
	}
	if h.c.dim != 2 {
		return
	}
	n := h.answers(fmt.Sprintf("%v(x %v %v)", kind, op, c), func(qr querier) ([]constraint.TupleID, error) {
		r, err := qr.QueryVertical(kind, op, c)
		return r.IDs, err
	}, func(tp *constraint.Tuple) (bool, error) { return matchesVertical(kind, op, c, tp) })
	h.cov.verticals += min(n, 1)
}

// checkAll is what must hold after every step.
func (h *engineHistory) checkAll() {
	if h.batch == nil { // CheckInvariants excludes writers: not inside a batch
		if err := h.ix.CheckInvariants(); err != nil {
			h.fatalf("%v", err)
		}
	}
	indexed := 0
	for _, tp := range h.live {
		if tp.IsSatisfiable() {
			indexed++
		}
	}
	if h.ix.Len() != indexed {
		h.fatalf("Len %d, model %d satisfiable of %d", h.ix.Len(), indexed, len(h.live))
	}
	if r := h.ix.Pool().Residency(); r.Pinned != 0 {
		h.fatalf("%d frames left pinned", r.Pinned)
	}
	// One store: the caller's relation is the open batch's state or, with none
	// open — after a commit, an abort, a refused tuple — the published
	// version's, and no later write moves a pinned version.
	h.checkStore("relation", h.rel.Len(), func(id constraint.TupleID) *constraint.Tuple {
		tp, _ := h.rel.Get(id)
		return tp
	}, h.rel.Scan, *h.current())
	// Each version's tables hold the extent and tangents of every tuple it
	// holds, and each leaf's bound the extent of every entry in it.
	rs := h.ix.roots.Load()
	h.checkStore("published version", rs.live, rs.tuples.Get, rs.tuples.Scan, h.live)
	if err := rs.checkExtents(h.ix.geo); err != nil {
		h.fatalf("%v", err)
	}
	for _, p := range h.pins {
		h.checkStore(fmt.Sprintf("snapshot %d", p.snap.Version()), p.snap.Tuples(), p.snap.rs.tuples.Get, p.snap.rs.tuples.Scan, p.model)
		if err := p.snap.rs.checkExtents(h.ix.geo); err != nil {
			h.fatalf("%v", err)
		}
	}
	h.cov.twoLevels = h.cov.twoLevels || h.ix.trees[0].Height() > 1
}

// checkStore requires one state of the relation to hold exactly the model's
// tuples (kept in id order): its count, Scan in id order and Get, pointer for
// pointer, with nothing under any other id.
func (h *engineHistory) checkStore(what string, n int, get func(constraint.TupleID) *constraint.Tuple, scan func(func(*constraint.Tuple) bool), model []*constraint.Tuple) {
	if n != len(model) {
		h.fatalf("%s counts %d tuples, the model %d", what, n, len(model))
	}
	i := 0
	scan(func(tp *constraint.Tuple) bool {
		if i == len(model) || model[i] != tp {
			h.fatalf("%s: Scan gave tuple %d at position %d of the model's %d", what, tp.ID(), i, len(model))
		}
		i++
		return true
	})
	if i != len(model) {
		h.fatalf("%s: Scan gave %d tuples, the model %d", what, i, len(model))
	}
	last := constraint.TupleID(1)
	if len(model) > 0 {
		last = model[len(model)-1].ID() + 2
	}
	i = 0
	for id := constraint.TupleID(0); id <= last; id++ {
		var want *constraint.Tuple
		if i < len(model) && model[i].ID() == id {
			want, i = model[i], i+1
		}
		if got := get(id); got != want {
			h.fatalf("%s: Get(%d) = %p, the model holds %p", what, id, got, want)
		}
	}
}

// runEngineHistory decodes data into operations over an index of case c and
// checks every version against the model after each; operations that do not
// apply in the current state are skipped. The first byte sizes the initial
// bulk-loaded relation, the second seeds the random shapes. cov may be nil.
func runEngineHistory(t testing.TB, c engineCase, data []byte, cov *engineCoverage) {
	if cov == nil {
		cov = &engineCoverage{paths: map[string]int{}}
	}
	h := &engineHistory{t: t, c: c, data: data, cov: cov}
	n := h.next() % 120
	h.rng = rand.New(rand.NewSource(int64(h.next())))
	rel := constraint.NewRelation(c.dim)
	for i := 0; i < n; i++ {
		tp := c.tuple(h.rng, i%4 == 0)
		if _, err := rel.Insert(tp); err != nil {
			t.Fatal(err)
		}
		h.live = append(h.live, tp)
	}
	var store pagestore.Store
	if c.dim == 2 {
		h.path = filepath.Join(t.TempDir(), "history.pages")
		file, err := pagestore.OpenFileStore(h.path, pagestore.DefaultPageSize)
		if err != nil {
			t.Fatal(err)
		}
		h.file, store = file, file
		defer func() { h.file.Close() }()
	}
	ix, err := c.build(rel, store)
	if err != nil {
		t.Fatal(err)
	}
	h.rel, h.ix, cov.technique = rel, ix, ix.opt.Technique
	h.obs = obs.New(obs.Options{SlowThreshold: 1})
	ix.SetObserver(h.obs)
	h.checkAll()

	for len(h.data) > 0 {
		switch op := h.next() % numEngineOps; op {
		case eoBegin:
			if h.batch == nil {
				h.begin()
			}
		case eoCommit:
			if h.batch != nil {
				h.commit()
			}
		case eoAbort:
			if h.batch != nil {
				h.abort()
			}
		case eoInsert:
			kind, arg := h.next()%numTupleKinds, h.next()
			h.insert(kind, arg)
		case eoDelete:
			h.delete(h.next())
		case eoPin:
			if len(h.pins) == maxSnapshots {
				h.unpin(0)
			}
			h.pins = append(h.pins, pinnedSnapshot{snap: h.ix.Snapshot(), model: h.live})
		case eoUnpin:
			if at := h.next(); len(h.pins) > 0 {
				h.unpin(at * len(h.pins) / 256)
			}
		case eoQuery:
			h.query(h.decodeQuery())
		case eoBatch:
			h.queryBatch(1 + h.next()%4)
		case eoRebuild:
			if h.batch != nil {
				err = h.batch.RebuildHandicaps()
			} else {
				err = h.ix.RebuildHandicaps()
			}
			if err != nil {
				h.fatalf("rebuild handicaps: %v", err)
			}
		case eoReopen:
			if h.batch == nil && h.file != nil {
				h.reopen()
			}
		case eoLine:
			h.line()
		case eoTuple:
			h.tupleQuery()
		case eoVertical:
			h.vertical()
		}
		h.checkAll()
	}
	if h.batch != nil {
		h.commit()
	}
	for len(h.pins) > 0 {
		h.unpin(0)
	}
	h.checkAll()
	// With no batch open and no snapshot pinned every superseded page is
	// reclaimed: the store holds the live version's pages and nothing else.
	if got, want := h.ix.Pool().Store().NumAllocated(), storedPages(h.ix)+h.leaked; got != want {
		h.fatalf("store holds %d pages; the live version references %d, and a reopen leaked %d", got, want-h.leaked, h.leaked)
	}
}

// engineSeeds are hand-written histories. They start from an empty relation
// (first byte 0) so that positions name tuples.
func engineSeeds() [][]byte {
	cat := func(parts ...[]byte) []byte { return slices.Concat(parts...) }
	// Every shape × every slope selector at the edges of the three oldest
	// tuples' values.
	var probes []byte
	for shape := 0; shape < 4; shape++ {
		for ssel := 0; ssel < 8; ssel++ {
			for _, sarg := range []int{0, 1, 6} {
				for i, bsel := range []int{abovByEps, belowByEps | ulpUp, abovBy2Eps | ulpDown, belowByEps, abovByEps | ulpUp, atValue} {
					probes = append(probes, eoQuery, byte(shape), byte(ssel), byte(sarg), byte(onOldest|bsel), byte(i+shape))
				}
			}
		}
	}
	named := []byte{eoInsert, tkAligned, 0, eoInsert, tkFarTriangle, 0, eoInsert, tkTinyPoint, 0}
	shapes := []byte{
		eoInsert, tkSteepCone, 0, eoInsert, tkSegment, 9,
		eoInsert, tkVerticalRay, 5, eoInsert, tkUnsatisfiable, 0, eoInsert, tkUnbounded, 0,
	}
	refused := []byte{eoInsert, tkOutOfRange, 0}
	// Line stabs, tuple selections and vertical ones at the edges of the
	// oldest tuples' values and extents.
	var compound []byte
	for i := 0; i < 24; i++ {
		b := byte(i)
		compound = append(compound,
			eoLine, b, b%8, b%3, onOldest|[]byte{atValue, abovByEps, belowByEps | ulpUp}[i%3], b,
			eoTuple, b, 2, b&6, 5, b%3, onOldest|abovByEps, b, 1+b, 7, b, onOldest|belowByEps, b+1, 2, 0, 0, 0, b,
			eoVertical, b, b*11, 1+b%4|(b&1)<<2)
	}
	// alignedVertices first, then fillers one at a time: above its key at the
	// site and below, so that leaf boundaries pass between its key, its
	// routing key and a sweep's start — queried in its strip's lower half at
	// its value plus Eps after every insert.
	fillers := slices.Clone(named)
	for j := 0; j < 100; j++ {
		fillers = append(fillers, eoInsert, tkPointHigh, byte(j))
	}
	for i := 0; i < 100; i++ {
		fillers = append(fillers, eoInsert, tkPointLow, byte(i),
			eoQuery, 0, 5, 0, onOldest|abovByEps, 0, // EXIST ≥, low in site 0's strip, tuple 0's value + Eps
			eoQuery, 0, 7, 64, onOldest|abovByEps, 0) // … and between the first two sites
	}
	// Points far out in x on the line through the origin at each site, as in
	// TestT2MarginCoversProductRounding: their keys at that site stay below
	// 1e-3, so a leaf of them widens T2's key rule by next to nothing, while
	// the rule's Δ·x rounds by an ulp of 1e8. Queried outside every strip and
	// anywhere, at their values, ± Eps, ± an ulp.
	var far []byte
	for i := 0; i < 300; i++ {
		far = append(far, eoInsert, tkFarOnSite, byte(i))
	}
	for i := 0; i < 200; i++ {
		b := byte(i)
		far = append(far, eoQuery, b%4, 6|b>>2&1, b, []byte{atValue, abovByEps, belowByEps, atValue | ulpUp, abovByEps | ulpDown}[i%5], b*37)
	}
	return [][]byte{
		cat([]byte{0, 1}, named, shapes, refused, probes, compound, []byte{eoReopen, eoDelete, 0, eoReopen}, probes, compound), // the first Save is refused
		cat([]byte{0, 2}, fillers, []byte{eoDelete, 0, eoReopen, eoRebuild}, probes[:len(probes)/8]),
		// Batches: insert and delete in one, an abort, a refused tuple ending
		// its batch, snapshots across commits and a rebuild.
		cat([]byte{90, 3, eoPin, eoBegin}, shapes, []byte{eoDelete, 255, eoDelete, 250, eoDelete, 3, eoCommit, eoPin},
			probes[:len(probes)/8], []byte{eoBegin, eoDelete, 0, eoDelete, 0, eoInsert, tkBounded, 0, eoAbort, eoBegin, eoDelete, 7}, refused,
			[]byte{eoBegin, eoDelete, 10, eoRebuild, eoCommit, eoPin},
			probes[len(probes)/8:len(probes)/4], []byte{eoBatch, 3}, probes[1:6], probes[7:12], probes[13:18], probes[19:24],
			[]byte{eoUnpin, 0, eoReopen, eoDelete, 100, eoBatch, 1, 1, 0, 0, 2, 7}),
		cat([]byte{0, 4}, far),
	}
}

// TestEngineOpsMatchScan runs the hand-written histories and seeded random
// ones over every engine case, and requires that together they reached what
// the model is for: every execution path, trees of more than one level, a
// reopen, a refused Save, an abort, a refused tuple, an insert and delete of
// one tuple in one batch, a pinned snapshot queried after a later commit,
// and in E² line, tuple and vertical selections with a non-empty answer.
func TestEngineOpsMatchScan(t *testing.T) {
	for _, c := range engineCases {
		t.Run(c.name, func(t *testing.T) {
			cov := engineCoverage{paths: map[string]int{}}
			for _, seed := range engineSeeds() {
				runEngineHistory(t, c, seed, &cov)
			}
			rng := rand.New(rand.NewSource(21))
			for i := 0; i < 16; i++ {
				data := make([]byte, 40+rng.Intn(200))
				rng.Read(data)
				runEngineHistory(t, c, data, &cov)
			}
			t.Logf("paths: %v", cov.paths)
			want := []string{"restricted", "t2", "t2(outside)"}
			switch {
			case c.dim > 2:
				want = []string{"restricted", "t2", "scan"}
			case cov.technique == T1:
				want = []string{"restricted", "t1"}
			}
			for _, p := range want {
				if cov.paths[p] == 0 {
					t.Errorf("path %q never taken", p)
				}
			}
			compound := cov.lines > 0 && cov.tuples > 0 && cov.verticals > 0
			if !cov.aborted || !cov.refused || !cov.sameBatch || !cov.sweptPinned || !cov.twoLevels || !cov.onSite || cov.reopened != (c.dim == 2) || cov.refusedSave != (c.dim == 2) || compound != (c.dim == 2) {
				t.Errorf("histories missed part of the state space: %+v", cov)
			}
		})
	}
}

// FuzzEngineOps runs arbitrary operation histories over every engine case:
// whatever the bytes decode to, every version must answer as the scan. Its
// checked-in corpus (testdata/fuzz/FuzzEngineOps) starts from engineSeeds.
func FuzzEngineOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range engineCases {
			runEngineHistory(t, c, data, nil)
		}
	})
}

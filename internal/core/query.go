package core

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"

	"dualcdb/internal/btree"
	"dualcdb/internal/constraint"
	"dualcdb/internal/geom"
	"dualcdb/internal/obs"
	"dualcdb/internal/pagestore"
)

// QueryStats describes how one selection was executed; the observer
// aggregates the same struct per path.
type QueryStats = obs.QueryStats

// Result is a selection answer: matching tuple ids in ascending order plus
// execution statistics.
type Result struct {
	IDs   []constraint.TupleID
	Stats QueryStats
}

// AppQuery is one of the approximation queries T1 rewrites a selection
// into: its slope belongs to S, so it runs on the restricted structure.
type AppQuery struct {
	Query constraint.Query
	// SlopeIndex is the position of the app-query slope in sorted S.
	SlopeIndex int
}

// execCtx carries one query's execution state: the pinned root set it
// reads and its exact I/O counter.
type execCtx struct {
	// rs is the version this query executes against — every tree sweep
	// and every relation lookup resolves through it, so a query is
	// consistent even while commits land concurrently.
	rs *rootSet
	rc *pagestore.ReadCounter
	// obs is the attached observer (nil: observation off). tr is the
	// active query trace; when a compound selection (query tuple, line
	// stab) owns the trace, its sub-queries find tr already set and record
	// their stage spans into it instead of opening traces of their own.
	obs *obs.Observer
	tr  *obs.Trace
}

// span opens a stage span when this execution is traced. On the bare
// path it costs one nil check and returns the zero timer, whose End is
// a no-op — no allocation, no atomic traffic.
func (ec *execCtx) span(stage obs.Stage) obs.SpanTimer {
	if ec.tr == nil {
		return obs.SpanTimer{}
	}
	return ec.tr.Begin(stage, ec.rc.Physical.Load(), 0)
}

// endSpan closes sp, attributing the physical reads since span() and
// the stage's payload size. A query's stages run one after another on
// ec.rc, so the per-stage pages partition the query's exact total. The
// close is unconditional — a zero timer's End is a no-op, so every span
// handed in reaches End on every path; the bare (untraced) path only
// skips the counter read, keeping it free of atomic traffic.
func (ec *execCtx) endSpan(sp obs.SpanTimer, items int) {
	if ec.tr == nil {
		sp.End(0, 0, items)
		return
	}
	sp.End(ec.rc.Physical.Load(), 0, items)
}

// scratch is one query's working memory, recycled through scratchPool by
// every path, so a query's allocations do not grow with its candidates.
type scratch struct {
	// cands are the retrieved references the exact predicate must evaluate,
	// sure those a sweep put into the answer on their key alone.
	cands, sure []uint32
	// bits is a bitset over the pinned version's dense tuple ids: T1 marks a
	// reference on first sight (a set bit is a duplicate), refinement leaves
	// the matches set and reads them out in id order. All zero when pooled.
	bits []uint64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch returns an empty scratch whose bitset covers every id of rs.
func getScratch(rs *rootSet) *scratch {
	sc := scratchPool.Get().(*scratch)
	if words := rs.tuples.MaxID()>>6 + 1; cap(sc.bits) < words {
		sc.bits = make([]uint64, words)
	} else {
		sc.bits = sc.bits[:words]
	}
	return sc
}

// putScratch recycles sc. A query that failed midway may have left bits
// set: it drops its scratch instead.
func putScratch(sc *scratch) {
	sc.cands, sc.sure = sc.cands[:0], sc.sure[:0]
	scratchPool.Put(sc)
}

// intersect returns the ids of b that are also in a, in b's order, reusing
// b's storage; both must be ids of rs (answers of queries on it are).
func intersect(rs *rootSet, a, b []constraint.TupleID) []constraint.TupleID {
	sc := getScratch(rs)
	for _, id := range a {
		sc.bits[id>>6] |= 1 << (id & 63)
	}
	out := b[:0]
	for _, id := range b {
		if sc.bits[id>>6]&(1<<(id&63)) != 0 {
			out = append(out, id)
		}
	}
	clear(sc.bits)
	putScratch(sc)
	return out
}

// Query executes an ALL or EXIST half-plane selection against the
// current version (a per-call snapshot is pinned and released
// internally; use Snapshot to run several queries on one version).
func (ix *Index) Query(q constraint.Query) (Result, error) {
	rs := ix.pinRoots()
	defer ix.unpinRoots(rs)
	return ix.query(q, ix.execCtxFor(rs))
}

func (r Result) queryStats() QueryStats      { return r.Stats }
func (r TupleResult) queryStats() QueryStats { return r.Stats.QueryStats }

// traced runs one selection as the owner of its query trace. When an
// observer is attached and no trace is active yet, it opens one under
// label() and reports the selection's stats when run returns;
// sub-selections sharing the execCtx (a compound query's) find the trace
// already open and record their stage spans into it instead. The label is
// only built for an observer, so the bare path allocates nothing.
func traced[R interface{ queryStats() QueryStats }](ec *execCtx, label func() string, run func() (R, error)) (R, error) {
	if ec.obs == nil || ec.tr != nil {
		return run()
	}
	ec.tr = ec.obs.StartQuery(label())
	res, err := run()
	ec.obs.FinishQuery(ec.tr, res.queryStats(), err)
	ec.tr = nil
	return res, err
}

// query is the shared execution core of Query and QueryBatch.
func (ix *Index) query(q constraint.Query, ec *execCtx) (Result, error) {
	return traced(ec, q.String, func() (Result, error) { return ix.queryExec(q, ec) })
}

// queryExec validates and routes one half-plane selection, collects its
// candidates on the path the routing selects and refines them through the
// exact Proposition 2.2 predicate.
func (ix *Index) queryExec(q constraint.Query, ec *execCtx) (Result, error) {
	if q.Dim() != ix.dim {
		return Result{}, fmt.Errorf("core: query dimension %d, index dimension %d", q.Dim(), ix.dim)
	}
	for _, a := range q.Slope {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return Result{}, fmt.Errorf("core: invalid query slope %v", q.Slope)
		}
	}
	if math.IsNaN(q.Intercept) { // ±Inf is a legal intercept: Query.Matches orders it
		return Result{}, fmt.Errorf("core: invalid query intercept %v", q.Intercept)
	}
	sp := ec.span(obs.StageRoute)
	r, err := ix.geo.route(q.Slope, q.SweepsUp())
	ec.endSpan(sp, 0)
	if err != nil {
		return Result{}, err
	}

	sc := getScratch(ec.rs)
	var st QueryStats
	slopes, _ := ix.geo.(*slopeSet)
	switch {
	case r.onSite:
		st, err = ix.collectRestricted(r, q, ec, sc)
	case ix.opt.Technique == RestrictedOnly:
		err = fmt.Errorf("core: slope %v not in S and technique is restricted-only", q.Slope)
	case ix.opt.Technique == T2 && (r.inCell || slopes != nil):
		// Outside every strip the nearest slope's tree still holds every
		// tuple: with no handicap to stop at, the child bounds alone bound
		// the second sweep.
		st, err = ix.collectT2(r, q, ec, sc)
	case slopes == nil:
		// No covering app-query construction in E^d: outside every
		// clamped cell each tuple of the pinned version is a candidate.
		st = QueryStats{Path: "scan"}
		sc.cands = ec.rs.allIDs(sc.cands)
		st.Candidates = len(sc.cands)
	default:
		st, err = ix.collectT1(q, slopes.s, ec, sc)
	}
	if err != nil {
		return Result{}, err
	}
	return ec.refine(q.Matches, sc, st)
}

// sweep is the engine's one leaf sweep: from the leaf owning `from`, in one
// direction, it retrieves every entry whose stored key lies in
// [RoundKey(lo), RoundKey(hi)] and stops after the first leaf holding a key
// beyond the range's far end. A stored key is its value rounded to float32
// (btree.RoundKey), and rounding is monotone, so the range holds every entry
// whose value lies in [lo, hi], and perhaps a few more whose value rounds to
// an end. Every path — restricted, T1's app-queries, both T2 sweeps, the
// vertical pair, in any dimension — is one or two of these.
type sweep struct {
	from   float64
	asc    bool
	lo, hi float64
	// slot ≥ 0 folds that handicap slot over the visited leaves: the
	// minimum on an ascending sweep, the maximum on a descending one.
	slot int
	// sure: the keys were computed at the query's slope and the range's near
	// end — lo ascending, hi descending — is the predicate's own bound, so an
	// entry whose stored key lies strictly inside it is in the answer on its
	// key alone; one whose stored key equals the rounded bound may have a
	// value on either side of it and is evaluated (the restricted path,
	// DESIGN.md §16). A sure sweep carries no rule.
	sure bool
	// rule settles entries from key and x-extent when the keys were computed
	// off the query slope (T2); the zero value settles none. With a rule, a
	// leaf whose key range and bound the rule settles one way is settled
	// whole, and a sweep that folds no handicap passes, unread, every subtree
	// whose key range and bound the rule rejects (skip).
	rule keyRule
}

// keyRule decides a retrieved entry from its key k — the tuple's surface
// value at the site slope s — and its x-extent, without evaluating the
// predicate at the query slope a = s + shift. Every dual line of the tuple
// has a slope in [−supX, −infX], so the surface value at a lies in
//
//	[k − max(shift·infX, shift·supX), k − min(shift·infX, shift·supX)]
//
// (DESIGN.md §17). An interval wholly beyond `above` or `below` — the
// intercept plus and minus the margin collectT2 states, widened per leaf by
// the key's own rounding (atLeaf) — is decided; everything else, and every
// non-finite key or extent, is the predicate's. What that leaves, the
// tangent may settle: the line of the vertex attaining k supports the
// surface, so TOP at a is at least k − shift·x* and BOT at most that.
type keyRule struct {
	// xext is the pinned version's x-extent table (rootSet.xext); nil: no
	// rule.
	xext  [][2]float64
	shift float64
	far   int // index of the extent end with the larger shift·x: 1 when shift > 0
	// above and below bracket the intercept; a value beyond them gets
	// ifAbove resp. ifBelow: accept and reject for a ≥ selection, the other
	// way round for a ≤ one.
	above, below     float64
	ifAbove, ifBelow verdict
	// tan is the pinned version's tangent table (rootSet.tan), whose byte of
	// the swept tree for the tuple at index j of xext is tan[j·stride + col];
	// nil: no tangent. top: the tree is a B^up, where the tangent bounds the
	// value from below; a B^down's bounds it from above.
	tan         []uint8
	stride, col int
	top         bool
}

// slopeRule is the rule of a query at intercept b (up: a ≥ selection) whose
// slope is shift away from the slope the keys were computed at.
func slopeRule(xext [][2]float64, b, margin, shift float64, up bool) keyRule {
	r := keyRule{xext: xext, shift: shift, above: b + margin, below: b - margin, ifAbove: reject, ifBelow: accept}
	if up {
		r.ifAbove, r.ifBelow = accept, reject
	}
	if shift > 0 {
		r.far = 1
	}
	return r
}

type verdict uint8

const (
	evaluate verdict = iota // the exact predicate decides
	accept                  // in the answer on the key alone
	reject                  // out of it on the key alone
)

// atLeaf is the rule for the entries of one leaf whose finite stored keys
// have magnitude at most m: a stored key is within btree.RoundingError(m) of
// the kernel value it was rounded from, so above and below move out by that
// much. Once per leaf, so the per-entry test stays two products and two
// comparisons.
func (r keyRule) atLeaf(m float64) keyRule {
	e := btree.RoundingError(m)
	r.above, r.below = r.above+e, r.below-e
	return r
}

// step is the skip test of a sweep over the stored-key range [lo, hi] in the
// direction asc: a subtree with no key in the range is passed on the near
// side and ends the sweep on the far one; one whose keys in range the rule
// rejects whole is passed; every other subtree is read. Rejection looks at
// one end of the keys only — the high end for a ≥ selection — so a subtree
// open at the other end (the tree's first or last) can still be passed. A
// stored key k ≤ khi was rounded from a value of at most
// khi + btree.RoundingError(|khi|), as in atLeaf, and symmetrically below.
func (r *keyRule) step(b btree.Bound, lo, hi float64, asc bool) btree.Step {
	klo, khi := max(b.Lo, lo), min(b.Hi, hi)
	switch {
	case asc && b.Lo > hi, !asc && b.Hi < lo:
		return btree.Stop
	case klo > khi:
		return btree.Pass
	}
	// A bound whose products are not ordered — 0·Inf is NaN at Δ = 0, an empty
	// bound is Inf − Inf — rules nothing out, nor does NaN below.
	if !(r.shift*b.X[r.far]-r.shift*b.X[1-r.far] >= 0) {
		return btree.Enter
	}
	if r.ifBelow == reject {
		if khi+btree.RoundingError(math.Abs(khi))-r.shift*b.X[1-r.far] < r.below {
			return btree.Pass
		}
	} else if klo-btree.RoundingError(math.Abs(klo))-r.shift*b.X[r.far] > r.above {
		return btree.Pass
	}
	return btree.Enter
}

// finiteKeyBound returns the largest magnitude of a finite key of the
// non-empty leaf es: keys are sorted, so it is one of the first and last
// finite ones. The ±Inf keys it steps over are the predicate's anyway.
func finiteKeyBound(es btree.EntryRegion) float64 {
	i, j := 0, es.Len()-1
	for i < j && math.IsInf(es.Key(i), 0) {
		i++
	}
	for j > i && math.IsInf(es.Key(j), 0) {
		j--
	}
	if m := max(math.Abs(es.Key(i)), math.Abs(es.Key(j))); !math.IsInf(m, 0) {
		return m
	}
	return 0 // every key is infinite: none is decided
}

func (r *keyRule) decide(k float64, x [2]float64) verdict { return r.decideRange(k, k, x) }

// decideRange is decide for every entry with a key in [klo, khi] and an
// extent inside x at once: their values at the query slope all lie in
// [klo − max(shift·x), khi − min(shift·x)].
func (r *keyRule) decideRange(klo, khi float64, x [2]float64) verdict {
	lo, hi := klo-r.shift*x[r.far], khi-r.shift*x[1-r.far]
	switch {
	case !(hi-lo < math.MaxFloat64): // ±Inf key or extent (Inf − Inf is NaN), NaN
		return evaluate
	case lo > r.above:
		return r.ifAbove
	case hi < r.below:
		return r.ifBelow
	}
	return evaluate
}

// tangent decides an entry with stored key k and extent x that the bracket
// leaves to the predicate, by the dual line of the vertex v* attaining k: in
// a B^up TOP(a) ≥ k − shift·x* decides it if above `above`, in a B^down
// BOT(a) ≤ k − shift·x* if below `below`. The byte q places x* within one
// step of x′ = tangentX(q, x), which rounds by less than 2⁻⁵⁰·(|infX| +
// |supX|), so the line is moved by e = |shift|·(step + that) towards the
// intercept (DESIGN.md §17). A non-finite key, an unbounded extent, a NaN
// anywhere and an overflow are the predicate's.
func (r *keyRule) tangent(k float64, x [2]float64, q uint8) verdict {
	xq, step := tangentX(q, x)
	e := math.Abs(r.shift) * (step + 0x1p-50*(math.Abs(x[0])+math.Abs(x[1])))
	t := k - r.shift*xq
	switch {
	case !(math.Abs(t)+e < math.MaxFloat64): // ±Inf key or extent (Inf − Inf is NaN), NaN
		return evaluate
	case r.top && t-e > r.above:
		return r.ifAbove
	case !r.top && t+e < r.below:
		return r.ifBelow
	}
	return evaluate
}

// firstSweep is the sweep every path starts with, in the direction of the
// answer set (upward for ≥ selections): it keeps keys ≥ b−tol, resp.
// ≤ b+tol, to the last leaf on that side.
//
// Boundary semantics: the filter tolerates tol ≥ geom.Eps around the
// intercept, and the sweep therefore also *starts* one tolerance before b —
// a key within tol of b can be stored in the leaf preceding the one that
// owns b, and a sweep starting at b would never visit it. At tol = geom.Eps
// the bound is the very float Query.Matches compares a surface value with,
// so over keys computed at the query's slope the filter is the predicate up
// to the keys' rounding: it keeps every value the predicate accepts, and
// past that only values whose stored key equals the rounded bound.
func firstSweep(b, tol float64, up bool, slot int) sweep {
	if up {
		return sweep{from: b - tol, asc: true, lo: b - tol, hi: math.Inf(1), slot: slot}
	}
	return sweep{from: b + tol, asc: false, lo: math.Inf(-1), hi: b + tol, slot: slot}
}

// secondSweep is T2's: from b against the direction of the first sweep, as
// far as the bound h — a handicap, or the tree's far end — and one tolerance
// past it. It keeps exactly the stored keys the first sweep's filter rejected —
// the open end of its range is the float32 neighbour of the first sweep's
// rounded closed end — so the two sweeps are disjoint and no duplicates
// arise.
func secondSweep(b, tol float64, up bool, h float64) sweep {
	if up {
		return sweep{from: b, asc: false, lo: h - tol, hi: float32Next(b-tol, math.Inf(-1)), slot: -1}
	}
	return sweep{from: b, asc: true, lo: float32Next(b+tol, math.Inf(1)), hi: h + tol, slot: -1}
}

// float32Next is the stored key after RoundKey(k) in the direction of dir.
func float32Next(k, dir float64) float64 {
	return float64(math.Nextafter32(float32(btree.RoundKey(k)), float32(dir)))
}

// run executes the sweep on tr: every retrieved entry counts into
// st.Candidates, those settled on their key into st.Decided — the accepted
// ones go to sc.sure and count into st.Sure, the rejected ones go nowhere,
// and those the tangent settled count into st.Tangent too — and the rest go
// to sc.cands; visited leaves count into st and page reads are charged to
// rc. It returns the number of entries retrieved and the folded handicap.
//
// A leaf is read in place (btree.LeafView.Entries): its verdict — sure, no
// rule, or the rule's on the whole leaf — is taken once, and one loop per
// verdict settles its entries in range (DESIGN.md §17 "The leaf kernel").
func (s sweep) run(tr *btree.Tree, rc *pagestore.ReadCounter, sc *scratch, st *QueryStats) (int, float64, error) {
	h := math.Inf(1)
	if !s.asc {
		h = math.Inf(-1)
	}
	lo, hi := btree.RoundKey(s.lo), btree.RoundKey(s.hi)
	bound := lo // the predicate's end of a sure sweep
	if !s.asc {
		bound = hi
	}
	cands0, sure0, rejected, tangent := len(sc.cands), len(sc.sure), 0, 0
	var skip func(btree.Bound) btree.Step
	if s.rule.xext != nil && s.slot < 0 {
		skip = func(b btree.Bound) btree.Step { return s.rule.step(b, lo, hi, s.asc) }
	}
	visit := func(lv btree.LeafView) bool {
		st.LeavesSwept++
		if s.slot >= 0 {
			if s.asc {
				h = min(h, lv.Handicap(s.slot))
			} else {
				h = max(h, lv.Handicap(s.slot))
			}
		}
		es := lv.Entries()
		n := es.Len()
		if n == 0 {
			return true
		}
		cands, sure := sc.cands, sc.sure
		switch {
		case s.sure:
			for i := 0; i < n; i++ {
				if k := es.Key(i); k >= lo && k <= hi {
					if k != bound { // a stored key equal to the rounded bound may stand for a value on either side of it
						sure = append(sure, es.TID(i))
					} else {
						cands = append(cands, es.TID(i))
					}
				}
			}
		case s.rule.xext == nil:
			for i := 0; i < n; i++ {
				if k := es.Key(i); k >= lo && k <= hi {
					cands = append(cands, es.TID(i))
				}
			}
		default:
			rule := s.rule.atLeaf(finiteKeyBound(es))
			switch rule.decideRange(max(es.Key(0), lo), min(es.Key(n-1), hi), lv.Extent()) {
			case accept:
				for i := 0; i < n; i++ {
					if k := es.Key(i); k >= lo && k <= hi {
						sure = append(sure, es.TID(i))
					}
				}
			case reject:
				for i := 0; i < n; i++ {
					if k := es.Key(i); k >= lo && k <= hi {
						rejected++
					}
				}
			default:
				xext, tan := rule.xext, rule.tan
				for i := 0; i < n; i++ {
					k := es.Key(i)
					if !(k >= lo && k <= hi) {
						continue
					}
					tid := es.TID(i)
					v := evaluate
					// A reference past the table is past the relation: it
					// stays undecided and refinement reports it.
					if j := int(tid) - 1; uint(j) < uint(len(xext)) {
						v = rule.decide(k, xext[j])
						if v == evaluate && tan != nil {
							if v = rule.tangent(k, xext[j], tan[j*rule.stride+rule.col]); v != evaluate {
								tangent++
							}
						}
					}
					switch v {
					case accept:
						sure = append(sure, tid)
					case reject:
						rejected++
					default:
						cands = append(cands, tid)
					}
				}
			}
		}
		sc.cands, sc.sure = cands, sure
		// Keys are sorted within a leaf, so its last (first) key tells
		// whether an ascending (descending) sweep has left the range.
		if s.asc {
			return es.Key(n-1) <= hi
		}
		return es.Key(0) >= lo
	}
	err := tr.Sweep(s.from, s.asc, rc, skip, visit)
	sure := len(sc.sure) - sure0
	decided := sure + rejected
	retrieved := len(sc.cands) - cands0 + decided
	st.Candidates += retrieved
	st.Decided += decided
	st.Sure += sure
	st.Tangent += tangent
	return retrieved, h, err
}

// collectRestricted answers a query whose slope is site r.site itself
// (Section 3): one search plus a one-directional leaf sweep. By Theorem 3.1
// the keys are the answer — every entry whose stored key lies strictly
// inside the rounded bound is settled on its key, finite or not, and only
// those whose stored key equals it are evaluated (DESIGN.md §16).
func (ix *Index) collectRestricted(r routing, q constraint.Query, ec *execCtx, sc *scratch) (QueryStats, error) {
	st := QueryStats{Path: "restricted"}
	sw := firstSweep(q.Intercept, geom.Eps, q.SweepsUp(), -1)
	sw.sure = true
	sp := ec.span(obs.StageSweep)
	n, _, err := sw.run(ec.rs.tree(r.site, q), ec.rc, sc, &st)
	ec.endSpan(sp, n)
	return st, err
}

// t1PivotX is the x-coordinate of T1's pivot P: x = 0, the centre of the
// workload window (Section 4.1 leaves P open). The catalog records it and
// Open refuses a file that records another.
const t1PivotX = 0.0

// PlanT1 rewrites a query with slope a ∉ S into the two app-queries of
// Section 4.1. The slopes are the S-members nearest to a; the operators
// follow Table 1; both lines pass through the pivot point
// P = (pivotX, a·pivotX + b); an original ALL query becomes one ALL app-
// query (on the θ-preserving line) plus one EXIST app-query.
func PlanT1(q constraint.Query, slopes []float64, pivotX float64) ([2]AppQuery, error) {
	if len(slopes) < 2 {
		return [2]AppQuery{}, fmt.Errorf("core: T1 needs |S| ≥ 2")
	}
	a, b := q.Slope[0], q.Intercept
	j := sort.SearchFloat64s(slopes, a)
	var i1, i2 int // slope indices for q1, q2
	var op1, op2 geom.Op
	switch {
	case j == 0:
		// a < every slope (Table 1 row "a < a1, a < a2"): θ on the nearest
		// (smallest) slope, ¬θ on the second smallest.
		i1, i2 = 0, 1
		op1, op2 = q.Op, q.Op.Negate()
	case j == len(slopes):
		// a > every slope (row "a1 < a, a2 < a"): θ on the nearest
		// (largest) slope, ¬θ on the second largest.
		i1, i2 = len(slopes)-1, len(slopes)-2
		op1, op2 = q.Op, q.Op.Negate()
	default:
		// a1 < a < a2: both app-queries keep θ.
		i1, i2 = j-1, j
		op1, op2 = q.Op, q.Op
	}
	// Both lines pass through P on the query line.
	py := a*pivotX + b
	b1 := py - slopes[i1]*pivotX
	b2 := py - slopes[i2]*pivotX
	k1, k2 := q.Kind, q.Kind
	if q.Kind == constraint.ALL {
		// Two ALL app-queries can miss results (Figure 4): keep ALL on the
		// θ-preserving nearest line, relax the other to EXIST.
		k2 = constraint.EXIST
	}
	return [2]AppQuery{
		{Query: constraint.Query2(k1, slopes[i1], b1, op1), SlopeIndex: i1},
		{Query: constraint.Query2(k2, slopes[i2], b2, op2), SlopeIndex: i2},
	}, nil
}

// collectT1 executes the two app-queries of technique T1 — their slopes are
// sites, so one sweep each at the predicate's own tolerance retrieves
// exactly what the app-query accepts — and leaves their deduplicated
// answers, the candidates of q, in sc.cands, each with its bit set.
func (ix *Index) collectT1(q constraint.Query, slopes []float64, ec *execCtx, sc *scratch) (QueryStats, error) {
	sp := ec.span(obs.StageRoute)
	plan, err := PlanT1(q, slopes, t1PivotX)
	ec.endSpan(sp, 0)
	if err != nil {
		return QueryStats{}, err
	}
	st := QueryStats{Path: "t1"}
	for _, aq := range plan {
		sw := ec.span(obs.StageSweep)
		n, _, err := firstSweep(aq.Query.Intercept, geom.Eps, aq.Query.SweepsUp(), -1).run(
			ec.rs.tree(aq.SlopeIndex, aq.Query), ec.rc, sc, &st)
		ec.endSpan(sw, n)
		if err != nil {
			return QueryStats{}, err
		}
	}
	// Deduplicate before refinement; Candidates still counts every
	// retrieved reference (the paper's T1/T2 comparison is about exactly
	// this redundancy).
	dd := ec.span(obs.StageDedup)
	uniq := sc.cands[:0]
	for _, tid := range sc.cands {
		// A reference past the relation goes unmarked; refine reports it.
		if w, m := tid>>6, uint64(1)<<(tid&63); int(w) < len(sc.bits) {
			if sc.bits[w]&m != 0 {
				continue
			}
			sc.bits[w] |= m
		}
		uniq = append(uniq, tid)
	}
	st.Duplicates = len(sc.cands) - len(uniq)
	sc.cands = uniq
	ec.endSpan(dd, st.Duplicates)
	return st, nil
}

// t2Slack is δ, what T2's margin adds to Eps at slope magnitude m = |a| + |Δ|
// (DESIGN.md §17).
func t2Slack(m float64) float64 { return 32 * geom.Eps * (1 + m) }

// t2Rule returns T2's tolerance and key rule for q, routed by r, over the
// extent and tangent tables ext; with no tables (d > 2) the tolerance is Eps
// and the rule settles nothing.
func t2Rule(r routing, q constraint.Query, ext extents) (float64, keyRule) {
	if ext.xext == nil {
		return geom.Eps, keyRule{}
	}
	tol := geom.Eps + t2Slack(math.Abs(q.Slope[0])+math.Abs(r.shift))
	rule := slopeRule(ext.xext, q.Intercept, tol, r.shift, q.SweepsUp())
	rule.tan, rule.stride, rule.col, rule.top = ext.tan, ext.stride, treeIndex(r.site, q), q.UsesTop()
	return tol, rule
}

// collectT2 executes the single-tree handicap technique of Sections
// 4.2–4.4: the restricted sweep in the routed site's tree, tracking the
// extreme handicap of the visited leaves, then — when some tuple that the
// first sweep's filter rejected can still match — a second sweep the other
// way as far as that handicap. Outside every cell there is no handicap and
// the second sweep runs towards the tree's far end. In E² both sweeps settle
// most entries, and whole leaves, by keyRule, and the second passes every
// subtree whose child bound and key range the rule rejects (sweep.rule): far
// enough out every subtree is passed, so no sweep reads the whole tree unless
// its x-unbounded tuples spread over it. One tolerance serves filter,
// trigger, handicap stop and rule: Eps, the predicate's own, plus
// δ = t2Slack(|a| + |Δ|), which absorbs the routing keys behind the
// handicaps — the kernel's half-strip extrema, which bound its value at the
// query slope a up to its rounding at the strip ends and breakpoints — and
// the rounding of the products the rule brackets with: the kernel's at a and
// at the site a − Δ, and its own Δ·x. The rule widens it by the keys'
// rounding to float32 (keyRule.atLeaf), once per leaf and once per subtree
// it judges (DESIGN.md §17).
func (ix *Index) collectT2(r routing, q constraint.Query, ec *execCtx, sc *scratch) (QueryStats, error) {
	st, slot := QueryStats{Path: "t2"}, r.slot
	if !r.inCell {
		st.Path, slot = "t2(outside)", -1
	}
	tr := ec.rs.tree(r.site, q)
	b, up := q.Intercept, q.SweepsUp()
	tol, rule := t2Rule(r, q, ec.rs.extents)
	first := firstSweep(b, tol, up, slot)
	first.rule = rule

	sw := ec.span(obs.StageSweep)
	n, h, err := first.run(tr, ec.rc, sc, &st)
	ec.endSpan(sw, n)
	if err != nil {
		return st, err
	}
	if !r.inCell { // no handicap: the bound is the tree's far end
		h = math.Inf(-1)
		if !up {
			h = math.Inf(1)
		}
	}
	if (up && h < b-tol) || (!up && h > b+tol) {
		second := secondSweep(b, tol, up, h)
		second.rule = rule
		sw2 := ec.span(obs.StageSweepSecond)
		n, _, err = second.run(tr, ec.rc, sc, &st)
		ec.endSpan(sw2, n)
	}
	return st, err
}

// refine is the engine's one refinement loop: it filters sc.cands through
// the exact predicate — Proposition 2.2's Query.Matches, or the vertical
// test — against this version's frozen tuples, adds the references in
// sc.sure unevaluated, recycles sc and returns the answer in id order.
// Matches are bits in sc.bits, so the order costs one walk over the touched
// words, not a sort. st.Candidates and st.Duplicates are the collector's.
func (ec *execCtx) refine(match func(*constraint.Tuple) (bool, error), sc *scratch, st QueryStats) (Result, error) {
	sp := ec.span(obs.StageRefine)
	lo, hi, hits, err := ec.mark(match, sc)
	ec.endSpan(sp, len(sc.cands))
	if err != nil {
		return Result{}, err
	}
	ids := make([]constraint.TupleID, 0, hits)
	for w := int(lo >> 6); w <= int(hi>>6); w++ {
		for word := sc.bits[w]; word != 0; word &= word - 1 {
			ids = append(ids, constraint.TupleID(w<<6+bits.TrailingZeros64(word)))
		}
		sc.bits[w] = 0
	}
	st.Results = len(ids)
	st.FalseHits = st.Candidates - st.Duplicates - len(ids)
	st.PagesRead = ec.rc.Physical.Load()
	putScratch(sc)
	return Result{IDs: ids, Stats: st}, nil
}

// mark leaves exactly the answer's bits set in sc.bits and returns their
// count and the smallest and largest id among them (lo > hi: none).
func (ec *execCtx) mark(match func(*constraint.Tuple) (bool, error), sc *scratch) (lo, hi uint32, hits int, err error) {
	lo, hits = math.MaxUint32, len(sc.sure)
	for _, tid := range sc.sure {
		if int(tid>>6) >= len(sc.bits) {
			return 0, 0, 0, notInRelation(tid)
		}
		sc.bits[tid>>6] |= 1 << (tid & 63)
		lo, hi = min(lo, tid), max(hi, tid)
	}
	// Not evaluated, but still checked, a word at a time against the
	// version's live bits: a reference to a tuple this version does not hold
	// is a corrupt tree, not an answer. Only sure bits are set in lo … hi:
	// T1, the one path that marks bits before refinement, settles nothing
	// on its key.
	tuples := ec.rs.tuples
	for w := int(lo >> 6); w <= int(hi>>6); w++ {
		if dead := sc.bits[w] &^ tuples.LiveWord(w); dead != 0 {
			return 0, 0, 0, notInRelation(uint32(w<<6 + bits.TrailingZeros64(dead)))
		}
	}
	for _, tid := range sc.cands {
		t, err := ec.rs.candidate(tid)
		if err != nil {
			return 0, 0, 0, err
		}
		ok, err := match(t)
		if err != nil {
			return 0, 0, 0, err
		}
		if ok {
			sc.bits[tid>>6] |= 1 << (tid & 63)
			lo, hi = min(lo, tid), max(hi, tid)
			hits++
		} else {
			sc.bits[tid>>6] &^= 1 << (tid & 63) // T1's first-sight mark
		}
	}
	return lo, hi, hits, nil
}

// candidate resolves a tuple reference retrieved from a tree against this
// version of the relation.
func (rs *rootSet) candidate(tid uint32) (*constraint.Tuple, error) {
	if t := rs.tuples.Get(constraint.TupleID(tid)); t != nil {
		return t, nil
	}
	return nil, notInRelation(tid)
}

// notInRelation is the error of a tree reference to a tuple the pinned
// version does not hold.
func notInRelation(tid uint32) error {
	return fmt.Errorf("core: candidate %d not in relation: %w", tid, constraint.ErrNotFound)
}

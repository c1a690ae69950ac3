package core

import (
	"fmt"
	"slices"

	"dualcdb/internal/constraint"
	"dualcdb/internal/obs"
)

// This file extends the index beyond single half-plane selections to
// *generalized query tuples* — conjunctions of linear constraints, the
// query objects of constraint query languages (Section 1: "each inequality
// constraint, expressed by using the linear polynomial constraint theory,
// represents a half-plane"). The decompositions:
//
//	ALL(Q, t)  with Q = q₁ ∧ … ∧ q_m:   t ⊆ ∩ᵢ ext(qᵢ) ⇔ ∀i ALL(qᵢ, t),
//	  so the answer is the exact intersection of the per-constraint ALL
//	  selections — every constraint runs on the index.
//	EXIST(Q, t): not decomposable (t can meet every qᵢ without meeting
//	  their intersection), so the per-constraint EXIST selections act as
//	  filters — their intersection is a candidate superset — and an exact
//	  polyhedral intersection test refines the survivors.
//
// Vertical constraints (no slope form) cannot run on the dual trees; they
// are applied during refinement only. A query tuple with no usable
// constraint degenerates to a relation scan.

// QueryTupleStats extends QueryStats with the decomposition's shape. Its
// counters sum those of the per-constraint selections, except Results,
// FalseHits (the candidates the exact polyhedral test rejected) and
// PagesRead (the tuple query's own reads).
type QueryTupleStats struct {
	QueryStats
	// ConstraintsIndexed is how many of the query tuple's constraints ran
	// on the dual trees; ConstraintsSkipped counts vertical/trivial ones
	// that only the refinement saw.
	ConstraintsIndexed int
	ConstraintsSkipped int
}

// TupleResult is the answer of a generalized-tuple selection.
type TupleResult struct {
	IDs   []constraint.TupleID
	Stats QueryTupleStats
}

// QueryTuple executes ALL(qt, r) or EXIST(qt, r) for a generalized query
// tuple over the 2-D index, against the current version.
func (ix *Index) QueryTuple(kind constraint.QueryKind, qt *constraint.Tuple) (TupleResult, error) {
	rs := ix.pinRoots()
	defer ix.unpinRoots(rs)
	return ix.queryTuple(kind, qt, ix.execCtxFor(rs))
}

// QueryTuple executes ALL(qt, r) or EXIST(qt, r) against this snapshot's
// version.
func (s *Snapshot) QueryTuple(kind constraint.QueryKind, qt *constraint.Tuple) (TupleResult, error) {
	if err := s.guard(); err != nil {
		return TupleResult{}, err
	}
	return s.ix.queryTuple(kind, qt, s.execCtx())
}

// queryTuple decomposes, intersects and refines on a caller-supplied
// execCtx: one exact ReadCounter charges every sub-selection's I/O to this
// tuple query (racy before/after deltas on the shared pool counters would
// absorb concurrent queries' misses).
func (ix *Index) queryTuple(kind constraint.QueryKind, qt *constraint.Tuple, ec *execCtx) (TupleResult, error) {
	// The tuple selection owns one trace; every per-constraint sub-query
	// shares the execCtx and records into it.
	label := func() string { return fmt.Sprintf("%s(tuple, %d constraints)", kind, qt.NumConstraints()) }
	return traced(ec, label, func() (TupleResult, error) {
		if qt.Dim() != 2 || ix.dim != 2 {
			return TupleResult{}, fmt.Errorf("core: query tuples are 2-D only; tuple dimension %d, index dimension %d", qt.Dim(), ix.dim)
		}
		if !qt.IsSatisfiable() {
			// An unsatisfiable query tuple denotes the empty set: nothing is
			// contained in it and nothing intersects it.
			return TupleResult{Stats: QueryTupleStats{QueryStats: QueryStats{Path: "empty-query"}}}, nil
		}
		st := QueryTupleStats{QueryStats: QueryStats{Path: "tuple-" + kind.String()}}

		// Decompose into per-constraint selections. Non-vertical constraints
		// run as half-plane queries; vertical ones — trivial ones included —
		// have no slope form and are left to the refinement step.
		var selections []constraint.Query
		for i := range qt.NumConstraints() {
			slope, icpt, op, err := qt.Constraint(i).SlopeForm()
			if err != nil {
				st.ConstraintsSkipped++
				continue
			}
			selections = append(selections, constraint.NewQuery(kind, slope, icpt, op))
		}
		st.ConstraintsIndexed = len(selections)

		// candidate stays in ascending id order throughout: a scan yields
		// it, every selection's answer has it and intersect keeps it.
		var candidate []constraint.TupleID
		if len(selections) == 0 {
			// Nothing usable on the index: scan.
			st.Path = "tuple-scan"
			ec.rs.tuples.Scan(func(t *constraint.Tuple) bool {
				candidate = append(candidate, t.ID())
				return true
			})
		} else {
			// Intersect the per-constraint selections (each exact for ALL, a
			// filter for EXIST).
			for i, q := range selections {
				res, err := ix.query(q, ec)
				if err != nil {
					return TupleResult{}, err
				}
				st.Add(res.Stats)
				if i == 0 {
					candidate = res.IDs
				} else {
					candidate = intersect(ec.rs, res.IDs, candidate)
				}
				if len(candidate) == 0 {
					break
				}
			}
		}

		// Refine. For ALL with no skipped constraints the intersection is
		// already exact; otherwise (EXIST, or vertical constraints present)
		// test the exact polyhedral predicate.
		needRefine := kind == constraint.EXIST || st.ConstraintsSkipped > 0 || len(selections) == 0
		rf := ec.span(obs.StageRefine)
		ids, falseHits := candidate[:0], 0
		for _, id := range candidate {
			if needRefine {
				// The lookup and the predicate share one error return, which
				// closes the refine span.
				var ok bool
				t, err := ec.rs.candidate(uint32(id))
				switch {
				case err != nil:
				case kind == constraint.ALL:
					ok, err = constraint.TupleALL(qt, t)
				default:
					ok, err = constraint.TupleEXIST(qt, t)
				}
				if err != nil {
					ec.endSpan(rf, 0)
					return TupleResult{}, err
				}
				if !ok {
					falseHits++
					continue
				}
			}
			ids = append(ids, id)
		}
		ec.endSpan(rf, len(candidate))
		st.Results, st.FalseHits, st.PagesRead = len(ids), falseHits, ec.rc.Physical.Load()
		return TupleResult{IDs: ids, Stats: st}, nil
	})
}

// EvalTuple is the exhaustive ground truth for generalized-tuple
// selections: it scans the relation applying the exact polyhedral
// predicates.
func EvalTuple(kind constraint.QueryKind, qt *constraint.Tuple, rel *constraint.Relation) ([]constraint.TupleID, error) {
	if !qt.IsSatisfiable() {
		return nil, nil
	}
	var out []constraint.TupleID
	var scanErr error
	rel.Scan(func(t *constraint.Tuple) bool {
		var ok bool
		var err error
		if kind == constraint.ALL {
			ok, err = constraint.TupleALL(qt, t)
		} else {
			ok, err = constraint.TupleEXIST(qt, t)
		}
		if err != nil {
			scanErr = err
			return false
		}
		if ok {
			out = append(out, t.ID())
		}
		return true
	})
	if scanErr != nil {
		return nil, scanErr
	}
	slices.Sort(out)
	return out, nil
}

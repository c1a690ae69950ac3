package core

import (
	"fmt"
	"slices"

	"dualcdb/internal/constraint"
	"dualcdb/internal/geom"
	"dualcdb/internal/obs"
)

// QueryLine retrieves the tuples whose extension intersects the *line*
// y = a·x + b — the stabbing selection of the 1-dimensional interval view
// the paper's footnote 6 mentions: in the dual, tuple t_P intersects the
// line iff b lies in the interval [BOT^P(a), TOP^P(a)], so the answer is
// EXIST(y ≥ a·x + b) ∩ EXIST(y ≤ a·x + b). Both selections run on the
// index (sharing its technique and statistics) and the refined
// intersection is exact. Its Stats.Results counts the intersection and
// PagesRead the stab's reads; its other counts, FalseHits among them, are
// the sums of the two selections'.
func (ix *Index) QueryLine(a, b float64) (Result, error) {
	rs := ix.pinRoots()
	defer ix.unpinRoots(rs)
	return ix.queryLine(a, b, ix.execCtxFor(rs))
}

// QueryLine retrieves the tuples whose extension intersects the line
// y = a·x + b, against this snapshot's version.
func (s *Snapshot) QueryLine(a, b float64) (Result, error) {
	if err := s.guard(); err != nil {
		return Result{}, err
	}
	return s.ix.queryLine(a, b, s.execCtx())
}

// queryLine runs the two EXIST selections on the shared execCtx, so the
// stab's I/O is counted once on one exact per-query ReadCounter and both
// record their stage spans into the one trace the stab owns.
func (ix *Index) queryLine(a, b float64, ec *execCtx) (Result, error) {
	label := func() string { return fmt.Sprintf("line y = %g*x + %g", a, b) }
	return traced(ec, label, func() (Result, error) {
		upper, err := ix.query(constraint.Query2(constraint.EXIST, a, b, geom.GE), ec)
		if err != nil {
			return Result{}, err
		}
		lower, err := ix.query(constraint.Query2(constraint.EXIST, a, b, geom.LE), ec)
		if err != nil {
			return Result{}, err
		}
		dd := ec.span(obs.StageDedup)
		ids := intersect(ec.rs, upper.IDs, lower.IDs) // ascending, as lower.IDs is
		ec.endSpan(dd, len(ids))
		st := upper.Stats
		st.Add(lower.Stats)
		st.Path = fmt.Sprintf("line(%s∩%s)", upper.Stats.Path, lower.Stats.Path)
		st.Results = len(ids)
		// The shared ReadCounter accumulates across both sub-queries, so its
		// final value is the stab's exact physical-read total (summing the
		// sub-results would double-count: each sub-query's PagesRead is a
		// cumulative snapshot of the same counter).
		st.PagesRead = ec.rc.Physical.Load()
		return Result{IDs: ids, Stats: st}, nil
	})
}

// EvalLine is the exhaustive ground truth for line-stabbing selections.
func EvalLine(a, b float64, rel *constraint.Relation) ([]constraint.TupleID, error) {
	var out []constraint.TupleID
	var scanErr error
	slope := []float64{a}
	rel.Scan(func(t *constraint.Tuple) bool {
		// An empty extension has BOT = +Inf and TOP = −Inf: no line stabs it.
		bot, err := t.Bot(slope)
		if err != nil {
			scanErr = err
			return false
		}
		// EXIST(≤) and EXIST(≥), as Query.Matches compares them.
		if top, _ := t.Top(slope); bot <= b+geom.Eps && b-geom.Eps <= top {
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

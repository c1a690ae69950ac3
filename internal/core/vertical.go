package core

import (
	"fmt"
	"math"
	"slices"

	"dualcdb/internal/constraint"
	"dualcdb/internal/geom"
)

// Vertical half-planes x θ c fall outside the dual transform: a vertical
// line has no point in the dual plane (footnote 4). No tree orders the
// tuples by their horizontal support, so a vertical selection scans the
// version's tuples and decides each with the exact predicate:
//
//	EXIST(x ≥ c) ⇔ supX ≥ c     ALL(x ≤ c)   ⇔ supX ≤ c
//	ALL(x ≥ c)   ⇔ infX ≥ c     EXIST(x ≤ c) ⇔ infX ≤ c

// QueryVertical executes the selection Kind(x op c) against the current
// version by a scan.
func (ix *Index) QueryVertical(kind constraint.QueryKind, op geom.Op, c float64) (Result, error) {
	rs := ix.pinRoots()
	defer ix.unpinRoots(rs)
	return ix.queryVertical(kind, op, c, ix.execCtxFor(rs))
}

// QueryVertical executes the selection Kind(x op c) against this
// snapshot's version.
func (s *Snapshot) QueryVertical(kind constraint.QueryKind, op geom.Op, c float64) (Result, error) {
	if err := s.guard(); err != nil {
		return Result{}, err
	}
	return s.ix.queryVertical(kind, op, c, s.execCtx())
}

// queryVertical is QueryVertical on a caller-supplied execCtx.
func (ix *Index) queryVertical(kind constraint.QueryKind, op geom.Op, c float64, ec *execCtx) (Result, error) {
	label := func() string { return fmt.Sprintf("%s(x %s %g)", kind, op, c) }
	return traced(ec, label, func() (Result, error) {
		if ix.dim != 2 {
			return Result{}, fmt.Errorf("core: vertical selections are 2-D only; index dimension %d", ix.dim)
		}
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return Result{}, fmt.Errorf("core: invalid vertical intercept %v", c)
		}
		sc := getScratch(ec.rs)
		sc.cands = ec.rs.allIDs(sc.cands)
		st := QueryStats{Path: "scan", Candidates: len(sc.cands)}
		return ec.refine(func(t *constraint.Tuple) (bool, error) {
			return matchesVertical(kind, op, c, t)
		}, sc, st)
	})
}

// matchesVertical is the exact predicate for Kind(x op c): EXIST(≥) and
// ALL(≤) compare supX, ALL(≥) and EXIST(≤) infX = −sup(−x).
func matchesVertical(kind constraint.QueryKind, op geom.Op, c float64, t *constraint.Tuple) (bool, error) {
	sign := 1.0
	if (kind == constraint.EXIST) != (op == geom.GE) {
		sign = -1
	}
	x, err := t.Support([]float64{sign, 0})
	if err != nil || !t.IsSatisfiable() {
		return false, err
	}
	if x *= sign; op == geom.GE {
		return x >= c-geom.Eps, nil
	}
	return x <= c+geom.Eps, nil
}

// EvalVertical is the exhaustive ground truth for vertical selections.
func EvalVertical(kind constraint.QueryKind, op geom.Op, c float64, rel *constraint.Relation) ([]constraint.TupleID, error) {
	var out []constraint.TupleID
	var scanErr error
	rel.Scan(func(t *constraint.Tuple) bool {
		ok, err := matchesVertical(kind, op, c, t)
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

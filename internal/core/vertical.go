package core

import (
	"fmt"
	"math"
	"slices"

	"dualcdb/internal/btree"
	"dualcdb/internal/constraint"
	"dualcdb/internal/geom"
	"dualcdb/internal/obs"
)

// Vertical half-planes x θ c fall outside the dual transform (footnote 4:
// "the proposed transformation can be extended to deal with vertical
// hyperplanes"). The extension is the degenerate-direction analogue of the
// TOP/BOT trees: index every tuple's horizontal support interval
// [infX, supX] in one B⁺-tree pair, and the four selections reduce to the
// familiar sweeps:
//
//	EXIST(x ≥ c) ⇔ supX ≥ c     (V^up,   upward sweep)
//	ALL(x ≤ c)   ⇔ supX ≤ c     (V^up,   downward sweep)
//	ALL(x ≥ c)   ⇔ infX ≥ c     (V^down, upward sweep)
//	EXIST(x ≤ c) ⇔ infX ≤ c     (V^down, downward sweep)
//
// No approximation is ever needed — there is only one vertical direction —
// so vertical queries always run the restricted path. The pair is optional
// (Options.IndexVertical); without it vertical selections fall back to an
// exhaustive scan.

// vertical returns the V^up/V^down pair at the tail of a tree list — the
// writer's live one or a version's frozen one; empty when the index has none.
func (ix *Index) vertical(trees []*btree.Tree) []*btree.Tree {
	return trees[2*ix.geo.sites():]
}

// xSupport returns the tuple's horizontal support values supX and infX
// (±Inf for horizontally unbounded extensions).
func xSupport(t *constraint.Tuple) (sup, inf float64, err error) {
	sup, err = t.Support([]float64{1, 0})
	inf, _ = t.Support([]float64{-1, 0}) // fails only where the first does
	return sup, -inf, err
}

// QueryVertical executes the selection Kind(x op c) against the current
// version. With IndexVertical it runs one exact tree sweep; otherwise it
// scans.
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

// queryVertical is QueryVertical on a caller-supplied execCtx, so a
// generalized query tuple can charge the sweep to its own counter and
// trace.
func (ix *Index) queryVertical(kind constraint.QueryKind, op geom.Op, c float64, ec *execCtx) (Result, error) {
	label := func() string { return fmt.Sprintf("%s(x %s %g)", kind, op, c) }
	return traced(ec, label, func() (Result, error) {
		if ix.dim != 2 {
			return Result{}, fmt.Errorf("core: vertical selections are 2-D only; index dimension %d", ix.dim)
		}
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return Result{}, fmt.Errorf("core: invalid vertical intercept %v", c)
		}
		st := QueryStats{Path: "scan"}
		sc := getScratch(ec.rs)
		if v := ix.vertical(ec.rs.trees); len(v) == 0 {
			sc.cands = ec.rs.allIDs(sc.cands)
			st.Candidates = len(sc.cands)
		} else {
			st.Path = "restricted-vertical"
			// Route: EXIST(≥)/ALL(≤) read V^up; ALL(≥)/EXIST(≤) read V^down.
			tr := v[1]
			if (kind == constraint.EXIST) == (op == geom.GE) {
				tr = v[0]
			}
			sw := ec.span(obs.StageSweep)
			n, _, err := firstSweep(c, geom.Eps, op == geom.GE, -1).run(tr, ec.rc, sc, &st)
			ec.endSpan(sw, n)
			if err != nil {
				return Result{}, err
			}
		}
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

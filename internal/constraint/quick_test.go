package constraint

import (
	"math"
	"testing"
	"testing/quick"

	"dualcdb/internal/geom"
)

// TestQuickFormatParseRoundTrip: formatting any constraint and reparsing
// it yields the same half-plane (coefficient-exact for representable
// decimals, point-set-equal in general).
func TestQuickFormatParseRoundTrip(t *testing.T) {
	f := func(aRaw, bRaw, cRaw int16, le bool) bool {
		a := float64(aRaw) / 16
		b := float64(bRaw) / 16
		c := float64(cRaw) / 16
		if a == 0 && b == 0 {
			return true // trivial constraints format as "0 op c"
		}
		op := geom.GE
		if le {
			op = geom.LE
		}
		h := geom.HalfPlane2(a, b, c, op)
		text := formatConstraint(h)
		back, err := ParseConstraints(text, 2)
		if err != nil || len(back) != 1 {
			t.Logf("reparse %q: %v", text, err)
			return false
		}
		g := back[0]
		return math.Abs(g.A[0]-a) < 1e-9 && math.Abs(g.A[1]-b) < 1e-9 &&
			math.Abs(g.C-c) < 1e-9 && g.Op == op
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestQuickPropositon22Consistency: for boxes, ALL ⇒ EXIST and the four
// Proposition 2.2 comparisons are mutually consistent under operator
// negation: ALL(q(≥)) and EXIST(¬q) = EXIST(q(≤)) partition behaviours
// around the BOT value.
func TestQuickProposition22Consistency(t *testing.T) {
	f := func(cxRaw, cyRaw int16, side uint8, aRaw, bRaw int16) bool {
		cx, cy := float64(cxRaw)/64, float64(cyRaw)/64
		s := float64(side%32)/4 + 0.25
		tp := boxTuple(cx, cy, s)
		a := float64(aRaw) / 128
		b := float64(bRaw) / 32

		allGE, err1 := Query2(ALL, a, b, geom.GE).Matches(tp)
		existGE, err2 := Query2(EXIST, a, b, geom.GE).Matches(tp)
		allLE, err3 := Query2(ALL, a, b, geom.LE).Matches(tp)
		existLE, err4 := Query2(EXIST, a, b, geom.LE).Matches(tp)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return false
		}
		// Containment implies intersection.
		if allGE && !existGE {
			return false
		}
		if allLE && !existLE {
			return false
		}
		// A bounded tuple cannot be contained in both closed half-planes
		// unless it is degenerate on the boundary line.
		if allGE && allLE {
			ext, _ := tp.Extension()
			if ext.Top([]float64{a})-ext.Bot([]float64{a}) > 1e-6 {
				return false
			}
		}
		// Every tuple intersects at least one side of any line.
		return existGE || existLE
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Error(err)
	}
}

func boxTuple(cx, cy, half float64) *Tuple {
	t, err := NewTuple(2, []geom.HalfSpace{
		geom.HalfPlane2(1, 0, -(cx - half), geom.GE),
		geom.HalfPlane2(1, 0, -(cx + half), geom.LE),
		geom.HalfPlane2(0, 1, -(cy - half), geom.GE),
		geom.HalfPlane2(0, 1, -(cy + half), geom.LE),
	})
	if err != nil {
		panic(err)
	}
	return t
}

package constraint

import (
	"math"
	"strings"
	"testing"

	"dualcdb/internal/geom"
)

func TestParseSimple(t *testing.T) {
	cons, err := ParseConstraints("x >= 0 && y >= 0 && x + y <= 4", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cons) != 3 {
		t.Fatalf("got %d constraints", len(cons))
	}
	// x ≥ 0 → A=(1,0), C=0, GE.
	if cons[0].A[0] != 1 || cons[0].A[1] != 0 || cons[0].C != 0 || cons[0].Op != geom.GE {
		t.Errorf("cons[0] = %v", cons[0])
	}
	if cons[2].A[0] != 1 || cons[2].A[1] != 1 || cons[2].C != -4 || cons[2].Op != geom.LE {
		t.Errorf("cons[2] = %v", cons[2])
	}
}

func TestParseCoefficientsAndStar(t *testing.T) {
	for _, s := range []string{"3x - 2y <= 6", "3*x - 2*y <= 6", "3x-2y<=6"} {
		cons, err := ParseConstraints(s, 2)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		h := cons[0]
		if h.A[0] != 3 || h.A[1] != -2 || h.C != -6 || h.Op != geom.LE {
			t.Errorf("%q → %v", s, h)
		}
	}
}

func TestParseRHSExpressions(t *testing.T) {
	// y >= 2x + 1  ⇔  −2x + y − 1 ≥ 0.
	cons, err := ParseConstraints("y >= 2x + 1", 2)
	if err != nil {
		t.Fatal(err)
	}
	h := cons[0]
	if h.A[0] != -2 || h.A[1] != 1 || h.C != -1 || h.Op != geom.GE {
		t.Errorf("y >= 2x+1 → %v", h)
	}
}

func TestParseEquality(t *testing.T) {
	cons, err := ParseConstraints("y = 3", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cons) != 2 {
		t.Fatalf("equality must expand to 2 constraints, got %d", len(cons))
	}
	if cons[0].Op == cons[1].Op {
		t.Error("expanded pair must have opposite operators")
	}
}

func TestParseStrictAsClosed(t *testing.T) {
	cons, err := ParseConstraints("x < 5 && y > 1", 2)
	if err != nil {
		t.Fatal(err)
	}
	if cons[0].Op != geom.LE || cons[1].Op != geom.GE {
		t.Errorf("strict operators must map to closed: %v", cons)
	}
}

func TestParseSeparators(t *testing.T) {
	for _, s := range []string{"x >= 0, y >= 0", "x >= 0 && y >= 0", "x >= 0 and y >= 0"} {
		cons, err := ParseConstraints(s, 2)
		if err != nil || len(cons) != 2 {
			t.Errorf("%q: %v, %v", s, cons, err)
		}
	}
}

func TestParseNumericVariables(t *testing.T) {
	cons, err := ParseConstraints("x1 + 2x2 - x3 <= 10", 3)
	if err != nil {
		t.Fatal(err)
	}
	h := cons[0]
	if h.A[0] != 1 || h.A[1] != 2 || h.A[2] != -1 || h.C != -10 {
		t.Errorf("parsed %v", h)
	}
}

func TestParseUnaryMinusAndConstants(t *testing.T) {
	cons, err := ParseConstraints("-x - 2 >= -y + 1", 2)
	if err != nil {
		t.Fatal(err)
	}
	h := cons[0] // −x −2 − (−y + 1) = −x + y − 3 ≥ 0
	if h.A[0] != -1 || h.A[1] != 1 || h.C != -3 || h.Op != geom.GE {
		t.Errorf("parsed %v", h)
	}
}

func TestParseScientificNotation(t *testing.T) {
	cons, err := ParseConstraints("1.5e2x <= 3e-1", 2)
	if err != nil {
		t.Fatal(err)
	}
	if cons[0].A[0] != 150 || math.Abs(cons[0].C-(-0.3)) > 1e-12 {
		t.Errorf("parsed %v", cons[0])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",             // no constraint
		"x + 1",        // no comparison
		"x >=",         // missing RHS
		"q >= 0",       // unknown variable
		"x3 >= 0",      // variable outside dimension
		"x >= 0 &",     // stray ampersand
		"x ? 0",        // bad operator char
		"x >= 0 y<=1",  // missing separator
		"* x >= 0",     // orphan star
		"x + + y >= 0", // double operator
	}
	for _, s := range bad {
		if _, err := ParseConstraints(s, 2); err == nil {
			t.Errorf("ParseConstraints(%q) should fail", s)
		}
	}
}

func TestFormatRoundTrip(t *testing.T) {
	inputs := []string{
		"x >= 0 && y >= 0 && x + y <= 4",
		"3x - 2y <= 6",
		"y >= 2x + 1",
		"-x + 0.5y >= -2.25",
	}
	for _, s := range inputs {
		cons, err := ParseConstraints(s, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range cons {
			text := formatConstraint(h)
			back, err := ParseConstraints(text, 2)
			if err != nil {
				t.Fatalf("reparse %q: %v", text, err)
			}
			g, w := back[0], h
			if math.Abs(g.A[0]-w.A[0]) > 1e-12 || math.Abs(g.A[1]-w.A[1]) > 1e-12 ||
				math.Abs(g.C-w.C) > 1e-12 || g.Op != w.Op {
				t.Errorf("round trip %q → %q → %v, want %v", s, text, g, w)
			}
		}
	}
}

func TestTupleStringParseable(t *testing.T) {
	tp := mustTuple(t, "x >= 0 && y >= 0 && x + y <= 4")
	s := tp.String()
	if !strings.Contains(s, "&&") {
		t.Fatalf("String() = %q", s)
	}
	back, err := ParseTuple(s, 2)
	if err != nil {
		t.Fatalf("reparse %q: %v", s, err)
	}
	if len(back.Constraints()) != len(tp.Constraints()) {
		t.Fatal("round trip lost constraints")
	}
}

func TestVarName(t *testing.T) {
	if varName(0, 2) != "x" || varName(1, 2) != "y" {
		t.Error("2-D names")
	}
	if varName(0, 5) != "x1" || varName(4, 5) != "x5" {
		t.Error("high-dimension names")
	}
}

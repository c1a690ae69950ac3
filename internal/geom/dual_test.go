package geom

import (
	"math"
	"testing"
)

// TestExample21 reproduces Example 2.1 of the paper qualitatively: for the
// polygon of Figure 2, TOP/BOT comparisons decide ALL/EXIST.
func TestExample21(t *testing.T) {
	// Use the triangle (0,0),(4,0),(0,4); it is fully inside y ≥ −x − 1
	// (ALL), touches y = x (EXIST both sides), etc.
	p, _ := FromHalfSpaces(triangleHS(), 2)

	// q1 ≡ y ≥ −x − 1: ALL ⇔ −1 ≤ BOT(−1).
	if bot := p.Bot([]float64{-1}); !(-1 <= bot+Eps) {
		t.Errorf("ALL(q1) should hold: BOT(−1) = %v", bot)
	}
	// q3 ≡ y ≥ x: EXIST ⇔ 0 ≤ TOP(1); and not ALL since BOT(1) < 0.
	if top := p.Top([]float64{1}); !(0 <= top+Eps) {
		t.Errorf("EXIST(q3) should hold: TOP(1) = %v", top)
	}
	if bot := p.Bot([]float64{1}); !(bot < 0) {
		t.Errorf("ALL(q3) should fail: BOT(1) = %v", bot)
	}
}

func TestFDualMatchesDefinition(t *testing.T) {
	v := Point{2, -1, 5}
	b := []float64{3, 4}
	want := 5 - 2*3 - (-1)*4
	if got := FDual(v, b); math.Abs(got-float64(want)) > Eps {
		t.Fatalf("FDual = %v, want %v", got, want)
	}
}

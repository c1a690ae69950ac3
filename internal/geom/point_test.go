package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointBasicOps(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, -1}
	if got := p.Add(q); !got.Eq(Point{4, 1}) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); !got.Eq(Point{-2, 3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); !got.Eq(Point{2, 4}) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.Dot(q); got != 1 {
		t.Errorf("Dot = %v", got)
	}
	if got := (Point{3, 4}).Norm(); math.Abs(got-5) > Eps {
		t.Errorf("Norm = %v", got)
	}
	if got := (Point{0, 0}).Dist(Point{3, 4}); math.Abs(got-5) > Eps {
		t.Errorf("Dist = %v", got)
	}
}

func TestPointCloneIndependent(t *testing.T) {
	p := Point{1, 2}
	q := p.Clone()
	q[0] = 99
	if p[0] != 1 {
		t.Fatal("Clone aliases the original")
	}
}

func TestPointEqDifferentDims(t *testing.T) {
	if (Point{1}).Eq(Point{1, 0}) {
		t.Fatal("points of different dimension reported equal")
	}
}

func TestNormalizeZeroVector(t *testing.T) {
	z := Point{0, 0}
	if got := z.Normalize(); !got.Eq(z) {
		t.Errorf("Normalize(0) = %v", got)
	}
}

func TestNormalizeUnit(t *testing.T) {
	f := func(x, y float64) bool {
		if math.Abs(x) > 1e6 || math.Abs(y) > 1e6 {
			return true
		}
		p := Point{x, y}
		if p.Norm() < 1e-3 {
			return true
		}
		return math.Abs(p.Normalize().Norm()-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCross2Orientation(t *testing.T) {
	a, b, c := Pt2(0, 0), Pt2(1, 0), Pt2(0, 1)
	if Cross2(a, b, c) <= 0 {
		t.Error("CCW turn must have positive cross product")
	}
	if Cross2(a, c, b) >= 0 {
		t.Error("CW turn must have negative cross product")
	}
	if Cross2(a, b, Pt2(2, 0)) != 0 {
		t.Error("collinear points must have zero cross product")
	}
}

func TestPointString(t *testing.T) {
	if got := Pt2(1, -2.5).String(); got != "(1, -2.5)" {
		t.Errorf("String = %q", got)
	}
}

func TestAddSubInverse(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if anyBad(ax, ay, bx, by) {
			return true
		}
		a, b := Pt2(ax, ay), Pt2(bx, by)
		return a.Add(b).Sub(b).Eq(a) || a.Norm() > 1e12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func anyBad(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e9 {
			return true
		}
	}
	return false
}

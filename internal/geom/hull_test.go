package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestConvexHull2Square(t *testing.T) {
	pts := []Point{{0, 0}, {1, 0}, {1, 1}, {0, 1}, {0.5, 0.5}, {0.5, 0}}
	hull := ConvexHull2(pts)
	if len(hull) != 4 {
		t.Fatalf("hull = %v", hull)
	}
	// CCW orientation: positive area via shoelace.
	var s float64
	for i := range hull {
		j := (i + 1) % len(hull)
		s += hull[i][0]*hull[j][1] - hull[j][0]*hull[i][1]
	}
	if s <= 0 {
		t.Fatalf("hull not CCW: %v", hull)
	}
}

func TestConvexHull2Degenerate(t *testing.T) {
	if h := ConvexHull2(nil); h != nil {
		t.Errorf("hull of nothing = %v", h)
	}
	if h := ConvexHull2([]Point{{1, 2}}); len(h) != 1 {
		t.Errorf("hull of point = %v", h)
	}
	if h := ConvexHull2([]Point{{1, 2}, {1, 2}, {1, 2}}); len(h) != 1 {
		t.Errorf("hull of repeated point = %v", h)
	}
	// Two points within Eps are one point: a segment between them would
	// give edgesToHalfPlanes a near-zero direction.
	if h := ConvexHull2([]Point{{0.3, 0.4}, {0.3 + 1e-12, 0.4}}); len(h) != 1 {
		t.Errorf("hull of two points within Eps = %v", h)
	}
	h := ConvexHull2([]Point{{0, 0}, {1, 1}, {2, 2}, {3, 3}})
	if len(h) != 2 || !h[0].Eq(Point{0, 0}) || !h[1].Eq(Point{3, 3}) {
		t.Errorf("hull of collinear points = %v", h)
	}
}

func TestConvexHullContainsAllPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		n := 3 + rng.Intn(40)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Pt2(rng.NormFloat64()*20, rng.NormFloat64()*20)
		}
		hull := ConvexHull2(pts)
		if len(hull) < 3 {
			continue
		}
		poly, err := FromVertices(hull, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pts {
			ok, err := poly.Contains(p)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("point %v outside its own hull %v", p, hull)
			}
		}
	}
}

func TestPolygonArea2(t *testing.T) {
	sq := []Point{{0, 0}, {2, 0}, {2, 2}, {0, 2}}
	if a := PolygonArea2(sq); math.Abs(a-4) > Eps {
		t.Errorf("area = %v", a)
	}
	// Orientation must not matter.
	rev := []Point{{0, 2}, {2, 2}, {2, 0}, {0, 0}}
	if a := PolygonArea2(rev); math.Abs(a-4) > Eps {
		t.Errorf("area (CW) = %v", a)
	}
	if a := PolygonArea2(sq[:2]); a != 0 {
		t.Errorf("degenerate area = %v", a)
	}
}

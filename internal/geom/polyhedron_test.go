package geom

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// triangleHS is the triangle with vertices (0,0), (4,0), (0,4).
func triangleHS() []HalfSpace {
	return []HalfSpace{
		HalfPlane2(0, 1, 0, GE),  // y ≥ 0
		HalfPlane2(1, 0, 0, GE),  // x ≥ 0
		HalfPlane2(1, 1, -4, LE), // x + y ≤ 4
	}
}

func TestFromHalfSpacesTriangle(t *testing.T) {
	p, err := FromHalfSpaces(triangleHS(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.IsEmpty() || !p.IsBounded() {
		t.Fatalf("triangle misclassified: %v", p)
	}
	if len(p.Verts) != 3 {
		t.Fatalf("want 3 vertices, got %v", p.Verts)
	}
	want := []Point{{0, 0}, {4, 0}, {0, 4}}
	for _, w := range want {
		found := false
		for _, v := range p.Verts {
			if v.Eq(w) {
				found = true
			}
		}
		if !found {
			t.Errorf("missing vertex %v", w)
		}
	}
	if a := p.Area2(); math.Abs(a-8) > 1e-6 {
		t.Errorf("area = %v, want 8", a)
	}
}

func TestFromHalfSpacesEmpty(t *testing.T) {
	hs := []HalfSpace{
		HalfPlane2(0, 1, 0, GE), // y ≥ 0
		HalfPlane2(0, 1, 1, LE), // y ≤ −1
	}
	p, err := FromHalfSpaces(hs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsEmpty() {
		t.Fatalf("contradictory constraints must yield empty, got %v", p)
	}
	if ok, _ := p.Contains(Pt2(0, 0)); ok {
		t.Error("empty polyhedron contains nothing")
	}
}

func TestFromHalfSpacesTriviallyUnsatisfiable(t *testing.T) {
	p, err := FromHalfSpaces([]HalfSpace{HalfPlane2(0, 0, 1, LE)}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsEmpty() {
		t.Error("1 ≤ 0 must yield the empty polyhedron")
	}
}

func TestFromHalfSpacesQuadrant(t *testing.T) {
	hs := []HalfSpace{
		HalfPlane2(1, 0, 0, GE), // x ≥ 0
		HalfPlane2(0, 1, 0, GE), // y ≥ 0
	}
	p, err := FromHalfSpaces(hs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.IsEmpty() || p.IsBounded() {
		t.Fatalf("quadrant misclassified: %v", p)
	}
	if len(p.Verts) != 1 || !p.Verts[0].Eq(Point{0, 0}) {
		t.Fatalf("quadrant vertex: %v", p.Verts)
	}
	// Rays must generate the first quadrant: (1,0) and (0,1) in cone.
	for _, want := range []Point{{1, 0}, {0, 1}} {
		found := false
		for _, r := range p.Rays {
			if r.Eq(want) {
				found = true
			}
		}
		if !found {
			t.Errorf("missing ray %v in %v", want, p.Rays)
		}
	}
	if !math.IsInf(p.Area2(), 1) {
		t.Error("unbounded polyhedron must have infinite area")
	}
}

func TestFromHalfSpacesSlab(t *testing.T) {
	// 0 ≤ y ≤ 1: a horizontal slab, non-pointed (contains horizontal lines).
	hs := []HalfSpace{
		HalfPlane2(0, 1, 0, GE),
		HalfPlane2(0, 1, -1, LE),
	}
	p, err := FromHalfSpaces(hs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.IsEmpty() || p.IsBounded() {
		t.Fatalf("slab misclassified: %v", p)
	}
	// Support in +x and −x directions must be infinite; +y support is
	// bounded by the slab: sup y over slab points = 1 from the generators.
	if !math.IsInf(p.Support(Pt2(1, 0)), 1) || !math.IsInf(p.Support(Pt2(-1, 0)), 1) {
		t.Error("slab must be unbounded horizontally")
	}
	s := p.Support(Pt2(0, 1))
	if math.Abs(s-1) > 1e-6 {
		t.Errorf("slab sup y = %v, want 1", s)
	}
}

func TestFromHalfSpacesHalfPlaneOnly(t *testing.T) {
	// Single constraint y ≥ 2: half-plane, non-pointed.
	p, err := FromHalfSpaces([]HalfSpace{HalfPlane2(0, 1, -2, GE)}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.IsEmpty() || p.IsBounded() {
		t.Fatalf("half-plane misclassified: %v", p)
	}
	if !math.IsInf(p.Support(Pt2(1, 0)), 1) {
		t.Error("half-plane unbounded in +x")
	}
	if !math.IsInf(p.Support(Pt2(0, 1)), 1) {
		t.Error("half-plane unbounded in +y")
	}
	s := p.Support(Pt2(0, -1)) // sup(−y) = −inf y = −2
	if math.Abs(s-(-2)) > 1e-6 {
		t.Errorf("sup(−y) = %v, want −2", s)
	}
}

func TestFromHalfSpacesNoConstraints(t *testing.T) {
	p, err := FromHalfSpaces(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.IsEmpty() || p.IsBounded() {
		t.Fatalf("whole plane misclassified: %v", p)
	}
	for _, c := range []Point{{1, 0}, {-1, 0}, {0, 1}, {0, -1}, {1, 1}} {
		if !math.IsInf(p.Support(c), 1) {
			t.Errorf("whole plane support in %v must be +Inf", c)
		}
	}
}

// TestSupportDominatesSamples checks the fundamental support-function
// property against uniformly sampled feasible points.
func TestSupportDominatesSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		p := randomBoundedPoly(rng)
		if p.IsEmpty() {
			continue
		}
		for j := 0; j < 10; j++ {
			c := Pt2(rng.NormFloat64(), rng.NormFloat64())
			sup := p.Support(c)
			// Every convex combination of vertices is in P.
			w := rng.Float64()
			a := p.Verts[rng.Intn(len(p.Verts))]
			b := p.Verts[rng.Intn(len(p.Verts))]
			pt := a.Scale(w).Add(b.Scale(1 - w))
			if c.Dot(pt) > sup+1e-6 {
				t.Fatalf("support violated: c=%v pt=%v sup=%v", c, pt, sup)
			}
		}
	}
}

// randomBoundedPoly builds a random bounded polygon from tangent half-planes
// of a random circle, mirroring the paper's 3–6-constraint tuples.
func randomBoundedPoly(rng *rand.Rand) Polyhedron {
	p, err := FromHalfSpaces(randomBoundedHalfSpaces(rng), 2)
	if err != nil {
		panic(err)
	}
	return p
}

// randomBoundedHalfSpaces returns 3–6 half-planes tangent to a circle, whose
// conjunction is a bounded polygon.
func randomBoundedHalfSpaces(rng *rand.Rand) []HalfSpace {
	cx, cy := rng.Float64()*100-50, rng.Float64()*100-50
	r := rng.Float64()*10 + 0.5
	m := 3 + rng.Intn(4)
	hs := make([]HalfSpace, 0, m)
	for i := 0; i < m; i++ {
		// Keep normal-direction gaps below π so the polygon stays bounded.
		ang := (float64(i) + rng.Float64()*0.3 + 0.35) * 2 * math.Pi / float64(m)
		nx, ny := math.Cos(ang), math.Sin(ang)
		// nx·x + ny·y ≤ nx·cx + ny·cy + r
		hs = append(hs, HalfSpace{A: []float64{nx, ny}, C: -(nx*cx + ny*cy + r), Op: LE})
	}
	return hs
}

func TestTopBotAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		p := randomBoundedPoly(rng)
		if p.IsEmpty() || len(p.Verts) == 0 {
			continue
		}
		a := rng.NormFloat64() * 3
		top := p.Top([]float64{a})
		bot := p.Bot([]float64{a})
		// Brute force over vertices: F_{D(v)}(a) = v_y − a·v_x.
		bfTop, bfBot := math.Inf(-1), math.Inf(1)
		for _, v := range p.Verts {
			f := FDual(v, []float64{a})
			bfTop = math.Max(bfTop, f)
			bfBot = math.Min(bfBot, f)
		}
		if math.Abs(top-bfTop) > 1e-6 || math.Abs(bot-bfBot) > 1e-6 {
			t.Fatalf("Top/Bot mismatch: %v/%v vs %v/%v", top, bot, bfTop, bfBot)
		}
		if bot > top+Eps {
			t.Fatalf("Proposition 2.1 violated: BOT %v > TOP %v", bot, top)
		}
	}
}

func TestTopBotUnbounded(t *testing.T) {
	// Upper half-plane y ≥ 0: TOP = +Inf at every slope, BOT(a) is finite
	// only at a = 0 where BOT(0) = 0.
	p, err := FromHalfSpaces([]HalfSpace{HalfPlane2(0, 1, 0, GE)}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(p.Top([]float64{0}), 1) || !math.IsInf(p.Top([]float64{2}), 1) {
		t.Error("TOP of upper half-plane must be +Inf")
	}
	if b := p.Bot([]float64{0}); math.Abs(b) > 1e-6 {
		t.Errorf("BOT(0) = %v, want 0", b)
	}
	if !math.IsInf(p.Bot([]float64{1}), -1) {
		t.Error("BOT(1) of upper half-plane must be −Inf")
	}
}

// TestMBR checks Generators.Extent, the minimum bounding box a coordinate at
// a time, on a triangle, a quadrant, a 3-D cone, the empty polyhedron and
// random polygons (against the vertices' minimum and maximum).
func TestMBR(t *testing.T) {
	extents := func(p Polyhedron) [][2]float64 {
		g := p.Pack()
		out := make([][2]float64, p.Dim())
		for i := range out {
			out[i][0], out[i][1] = g.Extent(i)
		}
		return out
	}
	inf := math.Inf(1)
	tri, _ := FromHalfSpaces(triangleHS(), 2)
	quad, _ := FromHalfSpaces([]HalfSpace{HalfPlane2(1, 0, 0, GE), HalfPlane2(0, 1, 0, GE)}, 2)
	cone, err := FromVertices([]Point{{0, 0, 0}, {1, 2, 3}, {-1, 4, 2}, {2, -3, 1}}, []Point{{0, 0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		p    Polyhedron
		want [][2]float64
	}{
		{"triangle", tri, [][2]float64{{0, 4}, {0, 4}}},
		{"quadrant", quad, [][2]float64{{0, inf}, {0, inf}}},
		{"cone", cone, [][2]float64{{-1, 2}, {-3, 4}, {0, inf}}},
		{"empty", EmptyPolyhedron(2), [][2]float64{{inf, -inf}, {inf, -inf}}},
	} {
		if got := extents(c.p); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: Extent = %v, want %v", c.name, got, c.want)
		}
	}
	rng := rand.New(rand.NewSource(11))
	for range 50 {
		p := randomBoundedPoly(rng)
		want := [][2]float64{{inf, -inf}, {inf, -inf}}
		for _, v := range p.Verts {
			for i := range want {
				want[i] = [2]float64{math.Min(want[i][0], v[i]), math.Max(want[i][1], v[i])}
			}
		}
		if got := extents(p); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: Extent = %v, want %v", p, got, want)
		}
	}
}

func TestContainsRequiresHRep(t *testing.T) {
	p, err := FromVertices([]Point{{0, 0}, {1, 0}}, []Point{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Contains(Pt2(0, 0)); err != ErrNoHRep {
		t.Errorf("want ErrNoHRep, got %v", err)
	}
}

func TestFromVerticesBounded2D(t *testing.T) {
	p, err := FromVertices([]Point{{0, 0}, {2, 0}, {2, 2}, {0, 2}, {1, 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Verts) != 4 {
		t.Fatalf("interior point not pruned: %v", p.Verts)
	}
	for _, pt := range []Point{{1, 1}, {0, 0}, {2, 2}} {
		ok, err := p.Contains(pt)
		if err != nil || !ok {
			t.Errorf("Contains(%v) = %v, %v", pt, ok, err)
		}
	}
	if ok, _ := p.Contains(Pt2(3, 1)); ok {
		t.Error("(3,1) outside the square")
	}
}

func TestFromHalfSpaces3DSimplex(t *testing.T) {
	hs := []HalfSpace{
		NewHalfSpace([]float64{1, 0, 0}, 0, GE),
		NewHalfSpace([]float64{0, 1, 0}, 0, GE),
		NewHalfSpace([]float64{0, 0, 1}, 0, GE),
		NewHalfSpace([]float64{1, 1, 1}, -1, LE),
	}
	p, err := FromHalfSpaces(hs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsBounded() || len(p.Verts) != 4 {
		t.Fatalf("3-simplex: %v", p)
	}
	// TOP at slope (0,0) = max z = 1; BOT = min z = 0.
	if v := p.Top([]float64{0, 0}); math.Abs(v-1) > 1e-9 {
		t.Errorf("Top = %v", v)
	}
	if v := p.Bot([]float64{0, 0}); math.Abs(v) > 1e-9 {
		t.Errorf("Bot = %v", v)
	}
}

func TestFromHalfSpaces3DHalfSpaceCone(t *testing.T) {
	// Single non-axis-aligned half-space: x + y + z ≤ 0. Its recession cone
	// is itself; generators must span it so that Support is +Inf for any c
	// not proportional to +(1,1,1).
	p, err := FromHalfSpaces([]HalfSpace{NewHalfSpace([]float64{1, 1, 1}, 0, LE)}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []Point{{1, -1, 0}, {0, 1, -1}, {-1, 0, 0}, {1, 0, -1}} {
		if !math.IsInf(p.Support(c), 1) {
			t.Errorf("Support(%v) must be +Inf, got %v", c, p.Support(c))
		}
	}
	// In the normal direction the support is 0 (boundary through origin).
	if s := p.Support(Point{1, 1, 1}.Normalize()); math.Abs(s) > 1e-6 {
		t.Errorf("Support(normal) = %v, want 0", s)
	}
}

func TestSolveLinearKnown(t *testing.T) {
	x, ok := SolveLinear([][]float64{{2, 0}, {0, 4}}, []float64{6, 8})
	if !ok || math.Abs(x[0]-3) > Eps || math.Abs(x[1]-2) > Eps {
		t.Fatalf("solve = %v, %v", x, ok)
	}
	if _, ok := SolveLinear([][]float64{{1, 1}, {2, 2}}, []float64{1, 2}); ok {
		t.Error("singular system must be rejected")
	}
}

func TestSolveLinearRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		n := 2 + rng.Intn(3)
		a := make([][]float64, n)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 10
		}
		b := make([]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = rng.NormFloat64()
			}
		}
		for i := range a {
			for j := range a[i] {
				b[i] += a[i][j] * x[j]
			}
		}
		got, ok := SolveLinear(a, b)
		if !ok {
			continue // nearly singular random matrix; fine to skip
		}
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-5*(1+math.Abs(x[i])) {
				t.Fatalf("trial %d: got %v want %v", trial, got, x)
			}
		}
	}
}

// TestFromHalfSpacesListsEachVertexOnce: a vertex where more than d
// constraint boundaries meet is the solution of several d-subsets, and
// each solve rounds it to slightly different bits. FromHalfSpaces must
// still list it once: TOP and BOT are extremes over the vertex list.
func TestFromHalfSpacesListsEachVertexOnce(t *testing.T) {
	// line is y ≤ m·(x − 0.7) + 3.1, a boundary through (0.7, 3.1).
	line := func(m float64) HalfSpace { return HalfPlane2(-m, 1, 0.7*m-3.1, LE) }
	// face is z ≤ 2.9 − s·(a·(x − 0.3) + b·(y − 0.7)), a plane through
	// (0.3, 0.7, 2.9) falling away in the direction (a, b).
	face := func(a, b, s float64) HalfSpace {
		return NewHalfSpace([]float64{s * a, s * b, 1}, -2.9-s*(0.3*a+0.7*b), LE)
	}
	cases := []struct {
		name string
		hs   []HalfSpace
		dim  int
		want []Point
	}{
		{
			// A wedge below two lines through (0.7, 3.1), cut by a third
			// line through its apex.
			name: "wedge apex on three lines",
			hs:   []HalfSpace{line(-2.3), line(3.7), line(0.3)},
			dim:  2,
			want: []Point{{0.7, 3.1}},
		},
		{
			// A pyramid over a rectangle in z = 0: its four tilted faces, of
			// four different slopes, meet at the apex (0.3, 0.7, 2.9), and
			// each of the four face triples solves it to different bits.
			name: "pyramid apex on four faces",
			hs: []HalfSpace{
				NewHalfSpace([]float64{0, 0, 1}, 0, GE),
				face(1, 0, 1.3), face(-1, 0, 2.1), face(0, 1, 1.7), face(0, -1, 0.9),
			},
			dim: 3,
			want: []Point{
				{0.3, 0.7, 2.9},
				{0.3 + 2.9/1.3, 0.7 + 2.9/1.7, 0}, {0.3 + 2.9/1.3, 0.7 - 2.9/0.9, 0},
				{0.3 - 2.9/2.1, 0.7 + 2.9/1.7, 0}, {0.3 - 2.9/2.1, 0.7 - 2.9/0.9, 0},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := FromHalfSpaces(tc.hs, tc.dim)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range tc.want {
				n := 0
				for _, v := range p.Verts {
					if v.Eq(w) {
						n++
					}
				}
				if n != 1 {
					t.Errorf("vertex %v listed %d times in %v", w, n, p.Verts)
				}
			}
			if len(p.Verts) != len(tc.want) {
				t.Errorf("%d vertices %v, want %d", len(p.Verts), p.Verts, len(tc.want))
			}
		})
	}
}

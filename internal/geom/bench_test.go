package geom

import (
	"math"
	"math/rand"
	"testing"
)

func benchPolys(n int) []Polyhedron {
	rng := rand.New(rand.NewSource(1))
	out := make([]Polyhedron, n)
	for i := range out {
		out[i] = randomBoundedPoly(rng)
	}
	return out
}

// BenchmarkFromHalfSpaces2D times the extension alone, over 64 pre-built
// bounded polygons of 3–6 half-planes.
func BenchmarkFromHalfSpaces2D(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	sets := make([][]HalfSpace, 64)
	for i := range sets {
		sets[i] = randomBoundedHalfSpaces(rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromHalfSpaces(sets[i%len(sets)], 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFromHalfSpaces3D(b *testing.B) {
	hs := []HalfSpace{
		NewHalfSpace([]float64{1, 0, 0}, 0, GE),
		NewHalfSpace([]float64{0, 1, 0}, 0, GE),
		NewHalfSpace([]float64{0, 0, 1}, 0, GE),
		NewHalfSpace([]float64{1, 1, 1}, -1, LE),
		NewHalfSpace([]float64{1, 2, 0.5}, -2, LE),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromHalfSpaces(hs, 3); err != nil {
			b.Fatal(err)
		}
	}
}

var benchSink float64

func BenchmarkSupport(b *testing.B) {
	polys := benchPolys(64)
	c := Pt2(0.3, -0.7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = polys[i%len(polys)].Support(c)
	}
}

func BenchmarkTopEnvelopeBuild(b *testing.B) {
	polys := benchPolys(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = TopEnvelope2(polys[i%len(polys)])
	}
}

func BenchmarkEnvelopeEval(b *testing.B) {
	polys := benchPolys(64)
	envs := make([]Envelope, len(polys))
	for i, p := range polys {
		envs[i] = TopEnvelope2(p)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = envs[i%len(envs)].Eval(float64(i%7) - 3)
	}
}

func BenchmarkEnvelopeMinOn(b *testing.B) {
	polys := benchPolys(64)
	envs := make([]Envelope, len(polys))
	for i, p := range polys {
		envs[i] = TopEnvelope2(p)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = envs[i%len(envs)].MinOn(-1, 2)
	}
}

// BenchmarkStripExtrema routes one tuple at the four equiangular sites: the
// half-strip extrema of both surfaces around each, as Build does per tuple.
func BenchmarkStripExtrema(b *testing.B) {
	polys := benchPolys(64)
	gens := make([]Generators, len(polys))
	for i := range polys {
		gens[i] = polys[i].Pack()
	}
	// S = tan(−54°), tan(−18°), tan(18°), tan(54°); strips end halfway to the
	// neighbours and half the widest gap past the outer slopes.
	s0, s1 := math.Tan(-0.3*math.Pi), math.Tan(-0.1*math.Pi)
	m, out := (s0+s1)/2, (s1-s0)/2
	strips := [4][3]float64{{s0 - out, s0, m}, {m, s1, 0}, {0, -s1, -m}, {-m, -s0, out - s0}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := &gens[i%len(gens)]
		for _, s := range strips {
			top, bot := g.StripExtrema(s[0], s[1], s[2])
			benchSink += top.MinPrev + bot.MaxNext
		}
	}
}

func BenchmarkConvexHull2(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	pts := make([]Point, 64)
	for i := range pts {
		pts[i] = Pt2(rng.NormFloat64()*20, rng.NormFloat64()*20)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ConvexHull2(pts)
	}
}

func BenchmarkSolveLinear3(b *testing.B) {
	a := [][]float64{{2, 1, -1}, {-3, -1, 2}, {-2, 1, 2}}
	rhs := []float64{8, -11, -3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := SolveLinear(a, rhs); !ok {
			b.Fatal("singular")
		}
	}
}

package geom

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// extension2Shapes are the 2-D inputs on which the extension is easiest to
// get wrong; FuzzExtension2's checked-in corpus holds each of them under its
// name.
func extension2Shapes() map[string][]HalfSpace {
	hp := HalfPlane2
	// Three boundaries through (1/3, 1/7) whose pairwise solutions differ in
	// their last bits: the vertex dedup must keep the first of them (within
	// Eps), not each distinct one.
	px, py := 1.0/3, 1.0/7
	through := func(a, b float64, op Op) HalfSpace { return hp(a, b, -(a*px + b*py), op) }
	var polygon20 []HalfSpace
	for i := range 20 {
		ang := (float64(i) + 0.5) * 2 * math.Pi / 20
		nx, ny := math.Cos(ang), math.Sin(ang)
		polygon20 = append(polygon20, hp(nx, ny, -(nx*3+ny*-2+5), LE))
	}
	return map[string][]HalfSpace{
		"parallel":          {hp(0, 1, 0, GE), hp(0, 1, -2, LE), hp(0, 1, -3, LE), hp(1, 0, 0, GE), hp(1, 0, -4, LE), hp(2, 0, -8, LE)},
		"near-duplicate":    {hp(1, 0, 0, GE), hp(0, 1, 0, GE), hp(1, 1, -1, LE), hp(1, 1, -1-1e-12, LE), hp(1+1e-13, 1, -1, LE)},
		"redundant":         {hp(1, 0, 0, GE), hp(0, 1, 0, GE), hp(1, 1, -1, LE), hp(1, 0, -5, LE), hp(1, 2, -7, LE)},
		"three-lines":       {through(0.3, -1, LE), through(-0.7, -1, LE), through(1.9, -1.1, LE)},
		"three-lines-bound": {through(0.3, -1, LE), through(-0.7, -1, LE), through(1.9, -1.1, LE), hp(0, 1, -10, LE)},
		"pivot-order":       {hp(0, 1, 0, GE), hp(1, 0, 0, GE), hp(0.001, 1, -1, LE), hp(1, 0.001, -1, LE)},
		"equality-pair":     {hp(1, 2, -3, LE), hp(1, 2, -3, GE), hp(1, 0, 0, GE), hp(1, 0, -4, LE)},
		"slab":              {hp(1, -1, 0, GE), hp(1, -1, -1, LE)},
		"half-plane":        {hp(2, 1, -3, LE)},
		"line":              {hp(1, -1, -1, LE), hp(1, -1, -1, GE)},
		"point":             {hp(1, 0, -1, LE), hp(1, 0, -1, GE), hp(0, 1, -2, LE), hp(0, 1, -2, GE)},
		"empty":             {hp(1, 0, -1, GE), hp(1, 0, 0, LE), hp(0, 1, 0, GE)},
		"empty-trivial":     {hp(1, 0, 0, GE), hp(0, 0, 1, LE), hp(0, 1, 0, GE)},
		"wedge":             {hp(0.5, -1, 0, LE), hp(-2, -1, 1, LE)},
		"quadrant":          {hp(1, 0, 0, GE), hp(0, 1, 0, GE)},
		"trivial":           {hp(1, 0, 0, GE), hp(0, 0, -1, LE), hp(0, 1, 0, GE), hp(1e-10, -1e-11, 3, GE), hp(1, 1, -1, LE)},
		"whole-plane":       {hp(0, 0, -1, LE)},
		"polygon-20":        polygon20,
	}
}

// encodeHalfSpaces is FuzzExtension2's input format: per constraint one
// operator byte (even ≤, odd ≥) and a_x, a_y, c as little-endian float64
// bits.
func encodeHalfSpaces(hs []HalfSpace) []byte {
	var b []byte
	for _, h := range hs {
		b = append(b, byte(h.Op))
		for _, v := range [3]float64{h.A[0], h.A[1], h.C} {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b
}

// decodeHalfSpaces reads encodeHalfSpaces' format, ignoring a short tail,
// up to 24 constraints.
func decodeHalfSpaces(b []byte) []HalfSpace {
	var hs []HalfSpace
	for ; len(b) >= 25 && len(hs) < 24; b = b[25:] {
		f := func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b[1+8*i:])) }
		hs = append(hs, HalfPlane2(f(0), f(1), f(2), Op(b[0]&1)))
	}
	return hs
}

// diffExtension2 compares extension2's generators with the d-generic
// enumeration's on the same input, bit for bit, and reports the first
// difference ("" when there is none). It also checks that the result is one
// array of exactly its size.
func diffExtension2(hs []HalfSpace) string {
	got, gerr := PackHalfSpaces(hs, 2)
	p, werr := enumerate(hs, 2)
	if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
		return fmt.Sprintf("error %v, enumeration's %v", gerr, werr)
	}
	want := p.Pack()
	if cap(got.gen) != len(got.gen) {
		return fmt.Sprintf("generator array cap %d, len %d", cap(got.gen), len(got.gen))
	}
	if got.nrays != want.nrays || len(got.gen) != len(want.gen) || got.dim != want.dim {
		return fmt.Sprintf("rays %v vertices %v, enumeration's rays %v vertices %v",
			got.Rays(), got.Vertices(), want.Rays(), want.Vertices())
	}
	for i := range got.gen {
		if math.Float64bits(got.gen[i]) != math.Float64bits(want.gen[i]) {
			return fmt.Sprintf("generator float %d is %v (%#x), enumeration's %v (%#x); rays %v vertices %v",
				i, got.gen[i], math.Float64bits(got.gen[i]), want.gen[i], math.Float64bits(want.gen[i]),
				got.Rays(), got.Vertices())
		}
	}
	return ""
}

// TestExtension2MatchesEnumeration holds the 2-D extension to the d-generic
// enumeration, bit for bit, on the shapes that stress it, and checks that
// FuzzExtension2's corpus file of each shape holds it.
func TestExtension2MatchesEnumeration(t *testing.T) {
	for name, hs := range extension2Shapes() {
		if d := diffExtension2(hs); d != "" {
			t.Errorf("%s: %s", name, d)
		}
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", encodeHalfSpaces(hs))
		got, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzExtension2", name))
		if err != nil || string(got) != want {
			t.Errorf("%s: corpus file %q (%v), want %q", name, got, err, want)
		}
	}
}

// TestExtension2ShapesAreHard checks that the shapes meant to stress the
// dedup and the pivot do: three boundaries through one point give pairwise
// solutions that are within Eps but not bit-equal, and pivot-order's first
// pair needs the row swap.
func TestExtension2ShapesAreHard(t *testing.T) {
	shapes := extension2Shapes()
	for _, name := range []string{"three-lines", "three-lines-bound"} {
		hs := shapes[name]
		a, _ := solve2(hs[0], hs[1])
		b, _ := solve2(hs[0], hs[2])
		c, _ := solve2(hs[1], hs[2])
		if a == b && b == c || !Point(a[:]).Eq(b[:]) || !Point(a[:]).Eq(c[:]) {
			t.Errorf("%s: pairwise vertices %v %v %v, want Eq and not all bit-equal", name, a, b, c)
		}
	}
	if hs := shapes["pivot-order"]; math.Abs(hs[0].A[0]) > Eps {
		t.Error("pivot-order: the first constraint must have no x coefficient")
	}
}

// FuzzExtension2 compares the 2-D extension with the d-generic enumeration
// it replaces in E², bit for bit, on arbitrary constraint lists (the
// generic code stays for d ≥ 3, so it is the reference).
func FuzzExtension2(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		hs := decodeHalfSpaces(data)
		if d := diffExtension2(hs); d != "" {
			t.Fatalf("%v: %s", hs, d)
		}
	})
}

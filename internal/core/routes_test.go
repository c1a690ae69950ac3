package core

import (
	"math"
	"testing"
	"unsafe"

	"dualcdb/internal/btree"
	"dualcdb/internal/constraint"
	"dualcdb/internal/geom"
	"dualcdb/internal/workload"
)

// stripSet is the slope geometry of an empty 2-D index over slopes.
func stripSet(t *testing.T, slopes []float64) *slopeSet {
	t.Helper()
	ix, err := New(constraint.NewRelation(2), Options{Slopes: slopes, Technique: T2})
	if err != nil {
		t.Fatal(err)
	}
	return ix.geo.(*slopeSet)
}

// TestKernelRoutesMatchEnvelope: over the benchmark's relation (N = 12 000,
// small objects, seeds 1 and 5) at its four equiangular slopes, every
// handicap route is the generator kernel's half-strip extremum
// (Tuple.StripExtrema), bit for bit, and the float32 the tree stored for the
// envelope's route — MaxOn/MinOn of TOP^P and BOT^P over the half strip — so
// every tuple still goes to the leaf it went to and every handicap slot keeps
// its bits.
func TestKernelRoutesMatchEnvelope(t *testing.T) {
	g := stripSet(t, EquiangularSlopes(4))
	for _, seed := range []int64{1, 5} {
		rel, err := workload.GenerateRelation(workload.Config{N: 12000, Size: workload.Small, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		routes, differ, worst := 0, 0, 0.0
		rel.Scan(func(tp *constraint.Tuple) bool {
			for i, a := range g.s {
				lo, hi := g.stripBounds(i)
				up, down := g.routes(tp, i)
				top, bot, err := tp.StripExtrema(lo, a, hi)
				if err != nil {
					t.Fatal(err)
				}
				for k, e := range []geom.Envelope{tp.TopEnv(), tp.BotEnv()} {
					x := [2]geom.HalfStrips{top, bot}[k]
					kernel := [numSlots]float64{slotLowPrev: x.MaxPrev, slotLowNext: x.MaxNext, slotHighPrev: x.MinPrev, slotHighNext: x.MinNext}
					env := [numSlots]float64{
						slotLowPrev:  e.MaxOn(lo, a),
						slotLowNext:  e.MaxOn(a, hi),
						slotHighPrev: e.MinOn(lo, a),
						slotHighNext: e.MinOn(a, hi),
					}
					got := [2][numSlots]float64{up, down}[k]
					for slot := range got {
						routes++
						if math.Float64bits(got[slot]) != math.Float64bits(kernel[slot]) || btree.RoundKey(got[slot]) != btree.RoundKey(env[slot]) {
							t.Fatalf("seed %d, tuple %d, site %v, tree %d, slot %d: route %v, kernel %v, envelope %v", seed, tp.ID(), a, k, slot, got[slot], kernel[slot], env[slot])
						}
						if got[slot] != env[slot] { // counting the routes that moved at all
							differ++
							worst = max(worst, math.Abs(got[slot]-env[slot]))
						}
					}
				}
			}
			return true
		})
		if routes != 12000*4*2*numSlots {
			t.Fatalf("seed %d: %d routes compared", seed, routes)
		}
		t.Logf("seed %d: %d routes, %d differ from the envelope's in float64 bits (by at most %g), none after rounding", seed, routes, differ, worst)
	}
}

// TestRoutesAllocateNothing: a tuple's handicap routes are computed from the
// generators it already holds, so routing a tuple for the first time — as
// Build, Commit.Insert and RebuildHandicaps do — allocates nothing, for
// bounded and unbounded tuples alike.
func TestRoutesAllocateNothing(t *testing.T) {
	const runs = 100
	rel, err := workload.GenerateRelation(workload.Config{N: runs + 1, Size: workload.Small, Seed: 1, UnboundedFraction: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	var ts []*constraint.Tuple
	rel.Scan(func(tp *constraint.Tuple) bool {
		if !tp.IsSatisfiable() { // resolves the extension: what Insert does before it routes
			t.Fatalf("tuple %d is unsatisfiable", tp.ID())
		}
		ts = append(ts, tp)
		return true
	})
	g := stripSet(t, EquiangularSlopes(4))
	k := 0
	if allocs := testing.AllocsPerRun(runs, func() {
		g.routes(ts[k], k%len(g.s)) // each tuple routed once: AllocsPerRun's warm-up call takes the first
		k++
	}); allocs != 0 {
		t.Fatalf("%v allocations routing a tuple", allocs)
	}
}

// TestTupleSize: a tuple holds its constraints' numbers and operators and
// its extension's packed generators, and nothing built from them for one
// caller (DESIGN.md §16 "A tuple is its numbers").
func TestTupleSize(t *testing.T) {
	if n := unsafe.Sizeof(constraint.Tuple{}); n > 112 {
		t.Fatalf("constraint.Tuple is %d bytes, want at most 112 (a size class)", n)
	}
}

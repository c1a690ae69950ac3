package constraint_test

import (
	"runtime"
	"testing"

	"dualcdb/internal/constraint"
	"dualcdb/internal/workload"
)

// TestTupleHeapBytes bounds what a resolved tuple holds on the heap: a
// workload.Small relation (the benchmark's) copied into fresh tuples, as an
// index's relation is, each resolved, with the generated relation dropped.
// The tuple's numbers are its 4.5 constraints and 4.5 vertices on average,
// about 180 bytes; the bound leaves room for the struct and the size
// classes, and none for a cached polyhedron or per-constraint slices.
func TestTupleHeapBytes(t *testing.T) {
	const n = 4000
	const bound = 360
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gen, err := workload.GenerateRelation(workload.Config{N: n, Size: workload.Small, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rel := constraint.NewRelation(2)
	gen.Scan(func(tup *constraint.Tuple) bool {
		c, cerr := constraint.NewTuple(2, tup.Constraints())
		if cerr == nil {
			_, cerr = rel.Insert(c)
		}
		if err = cerr; err != nil {
			return false
		}
		if !c.IsSatisfiable() {
			t.Errorf("tuple %d is empty", c.ID())
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	gen = nil
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	runtime.KeepAlive(rel)
	t.Logf("%.0f heap bytes a resolved tuple (N = %d)", per, n)
	if per > bound {
		t.Fatalf("a resolved tuple holds %.0f heap bytes, want at most %d", per, bound)
	}
}

// TestResolveAllocatesOnce checks that resolving a fresh workload.Small tuple
// makes one allocation, its generators' array, and that the array is exactly
// their size.
func TestResolveAllocatesOnce(t *testing.T) {
	const runs = 200
	gen, err := workload.GenerateRelation(workload.Config{N: runs + 1, Size: workload.Small, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var fresh []*constraint.Tuple
	gen.Scan(func(tup *constraint.Tuple) bool {
		c, cerr := constraint.NewTuple(2, tup.Constraints())
		if err = cerr; err != nil {
			return false
		}
		fresh = append(fresh, c)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	if n := testing.AllocsPerRun(runs, func() {
		fresh[next].Generators()
		next++
	}); n != 1 {
		t.Errorf("resolving a tuple allocates %v times, want 1", n)
	}
	for _, c := range fresh {
		if v := c.Generators().Vertices(); cap(v) != len(v) || len(v) == 0 {
			t.Fatalf("tuple %v: generator array cap %d, len %d; want equal and non-zero", c, cap(v), len(v))
		}
	}
}

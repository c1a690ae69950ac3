// Infinite objects: the Operations Research scenario from the paper's
// introduction (and its Figure 1). Linear-programming feasible regions
// are naturally unbounded polyhedra; the dual-representation index stores
// them exactly, while bounding-box structures either reject them or —
// worse — give wrong answers after clipping them at a working window.
package main

import (
	"fmt"
	"log"

	"dualcdb"
)

func main() {
	rel := dualcdb.NewRelation(2)
	idx, err := dualcdb.BuildIndex(rel, dualcdb.IndexOptions{
		Slopes: dualcdb.EquiangularSlopes(3), Technique: dualcdb.T2,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Feasible regions of three production-planning LPs over (x, y) =
	// (units of product A, units of product B). All are unbounded — more
	// production is always feasible in some direction.
	plans := []struct {
		name string
		cons string
	}{
		{"plant-1", "x >= 0 && y >= 0 && y <= 2x + 5"},
		{"plant-2", "x >= 3 && y >= x - 1"},
		{"plant-3", "y >= x - 100 && y <= x - 99"}, // Figure 1's t2: a far-away strip
	}
	ids := map[string]dualcdb.TupleID{}
	for _, p := range plans {
		t, err := dualcdb.ParseTuple(p.cons, 2)
		if err != nil {
			log.Fatal(err)
		}
		id, err := idx.Insert(t)
		if err != nil {
			log.Fatal(err)
		}
		ids[p.name] = id
		fmt.Printf("%-8s %-34s bounded=%v\n", p.name, p.cons, t.IsBounded())
	}

	// The R⁺-tree cannot store any of these.
	rplus, err := dualcdb.BuildRPlusIndex(rel, dualcdb.RPlusOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nR+-tree skipped %d of %d tuples (bounded objects only)\n",
		rplus.Skipped, rel.Len())

	// A profit constraint: profit = −x + y ≥ 100, i.e. y ≥ x + 100.
	// Which plans *can* reach it (EXIST)? Which satisfy it always (ALL)?
	q := dualcdb.Exist2(1, 100, dualcdb.GE)
	res, err := idx.Query(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%v -> %v\n", q, res.IDs)
	for _, p := range plans { // in plan order: a map's order changes from run to run
		for _, got := range res.IDs {
			if got == ids[p.name] {
				fmt.Printf("  %s can reach the profit region\n", p.name)
			}
		}
	}

	// Figure 1's point: query q ≡ y ≥ −x + 100 and the strip plant-3 are
	// disjoint inside the window [−50, 50]² but intersect far outside it.
	fig1 := dualcdb.Exist2(-1, 100, dualcdb.GE)
	res, err = idx.Query(fig1)
	if err != nil {
		log.Fatal(err)
	}
	hit := false
	for _, id := range res.IDs {
		if id == ids["plant-3"] {
			hit = true
		}
	}
	fmt.Printf("\nFigure 1 check: %v intersects plant-3? %v (correct: true)\n", fig1, hit)

	// The window-clipped version of plant-3 — what a bounded structure
	// would store — misses the intersection entirely.
	clipped, err := dualcdb.ParseTuple(
		"y >= x - 100 && y <= x - 99 && x >= -50 && x <= 50 && y >= -50 && y <= 50", 2)
	if err != nil {
		log.Fatal(err)
	}
	if clipped.IsSatisfiable() {
		ok, err := fig1.Matches(clipped)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("window-clipped plant-3 intersects? %v (clipping loses the answer)\n", ok)
	} else {
		fmt.Println("window-clipped plant-3 is empty inside the window (clipping loses the object)")
	}
}

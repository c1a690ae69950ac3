package dualcdb_test

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"dualcdb"
)

// TestQuickstart exercises the documented public API end to end.
func TestQuickstart(t *testing.T) {
	rel := dualcdb.NewRelation(2)
	idx, err := dualcdb.NewIndex(rel, dualcdb.IndexOptions{
		Slopes: dualcdb.EquiangularSlopes(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	triangle, err := dualcdb.ParseTuple("x >= 0 && y >= 0 && x + y <= 4", 2)
	if err != nil {
		t.Fatal(err)
	}
	id, err := idx.Insert(triangle)
	if err != nil {
		t.Fatal(err)
	}
	res, err := idx.Query(dualcdb.Exist2(0.5, 1, dualcdb.GE))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 1 || res.IDs[0] != id {
		t.Fatalf("EXIST(y ≥ 0.5x+1) = %v", res.IDs)
	}
	res, err = idx.Query(dualcdb.All2(0, -1, dualcdb.GE)) // triangle ⊆ {y ≥ −1}
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 1 {
		t.Fatalf("ALL(y ≥ −1) = %v", res.IDs)
	}
	res, err = idx.Query(dualcdb.All2(0, 1, dualcdb.GE)) // triangle ⊄ {y ≥ 1}
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 0 {
		t.Fatalf("ALL(y ≥ 1) = %v", res.IDs)
	}
}

// TestFacadeWorkloadAndBaseline drives the generator, both index
// structures and the ground-truth evaluator through the public API.
func TestFacadeWorkloadAndBaseline(t *testing.T) {
	rel, err := dualcdb.GenerateRelation(dualcdb.WorkloadConfig{
		N: 400, Size: dualcdb.SmallObjects, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	dual, err := dualcdb.BuildIndex(rel, dualcdb.IndexOptions{
		Slopes: dualcdb.EquiangularSlopes(3), Technique: dualcdb.T2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rplus, err := dualcdb.BuildRPlusIndex(rel, dualcdb.RPlusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	queries, err := dualcdb.GenerateQueries(rel, dualcdb.QueryWorkloadConfig{
		Count: 8, Kind: dualcdb.ALL, SelectivityLo: 0.1, SelectivityHi: 0.15, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		want, err := q.Eval(rel)
		if err != nil {
			t.Fatal(err)
		}
		dres, err := dual.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		rres, err := rplus.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(dres.IDs) != len(want) || len(rres.IDs) != len(want) {
			t.Fatalf("%v: dual %d, rplus %d, want %d", q, len(dres.IDs), len(rres.IDs), len(want))
		}
		for i := range want {
			if dres.IDs[i] != want[i] || rres.IDs[i] != want[i] {
				t.Fatalf("%v: mismatch at %d", q, i)
			}
		}
	}
}

// Example demonstrates the README quick-start snippet.
func Example() {
	rel := dualcdb.NewRelation(2)
	idx, _ := dualcdb.NewIndex(rel, dualcdb.IndexOptions{
		Slopes: dualcdb.EquiangularSlopes(3),
	})
	t1, _ := dualcdb.ParseTuple("x >= 0 && y >= 0 && x + y <= 4", 2)
	t2, _ := dualcdb.ParseTuple("y >= 8", 2) // an infinite object
	id1, _ := idx.Insert(t1)
	id2, _ := idx.Insert(t2)

	exist, _ := idx.Query(dualcdb.Exist2(0, 6, dualcdb.GE)) // who meets y ≥ 6?
	all, _ := idx.Query(dualcdb.All2(0, 6, dualcdb.GE))     // who lies inside y ≥ 6?
	fmt.Println("ids:", id1, id2)
	fmt.Println("EXIST(y>=6):", exist.IDs)
	fmt.Println("ALL(y>=6):  ", all.IDs)
	// Output:
	// ids: 1 2
	// EXIST(y>=6): [2]
	// ALL(y>=6):   [2]
}

// TestFacadeRefusesTupleOutOfRange: the typed range error is reachable
// through the facade, and a refused tuple leaves relation and index alone.
func TestFacadeRefusesTupleOutOfRange(t *testing.T) {
	rel := dualcdb.NewRelation(2)
	idx, err := dualcdb.NewIndex(rel, dualcdb.IndexOptions{Slopes: dualcdb.EquiangularSlopes(3)})
	if err != nil {
		t.Fatal(err)
	}
	far, err := dualcdb.ParseTuple("x >= 0 && x <= 1 && y >= 0 && y <= 3000000", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.Insert(far); !errors.Is(err, dualcdb.ErrTupleRange) {
		t.Fatalf("Insert: %v, want ErrTupleRange", err)
	}
	if rel.Len() != 0 || idx.Len() != 0 {
		t.Fatalf("the refused tuple left %d tuples in the relation, %d in the index", rel.Len(), idx.Len())
	}
}

// TestOpenDatabasePoolMatchesCreate: a reopened database gets the same
// buffer pool, in frames, as the one CreateDatabase built.
func TestOpenDatabasePoolMatchesCreate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.cdb")
	rel := dualcdb.NewRelation(2)
	for _, s := range []string{
		"x >= 0 && x <= 1 && y >= 0 && y <= 1",
		"x >= 2 && x <= 4 && y >= 1 && y <= 3",
	} {
		tup, err := dualcdb.ParseTuple(s, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rel.Insert(tup); err != nil {
			t.Fatal(err)
		}
	}
	created, err := dualcdb.CreateDatabase(path, rel, dualcdb.IndexOptions{Slopes: dualcdb.EquiangularSlopes(3)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { created.Pool().Store().Close() })
	if err := created.Save(); err != nil {
		t.Fatal(err)
	}
	_, opened, err := dualcdb.OpenDatabase(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { opened.Pool().Store().Close() })
	cp, op := created.Pool(), opened.Pool()
	if cc, oc := cp.Residency().Capacity, op.Residency().Capacity; cc != oc {
		t.Errorf("pool capacity: created %d frames, opened %d", cc, oc)
	}
}

// TestSavedFileSurvivesCommits: commits made after Save and never saved
// themselves — a process that stops before its next Save — leave the file
// the saved version. After 1, 8, 100 and 3 000 insert + delete pairs a
// second handle opens the file, and its relation and answers are the saved
// ones.
func TestSavedFileSurvivesCommits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.cdb")
	rel, err := dualcdb.GenerateRelation(dualcdb.WorkloadConfig{N: 3000, Size: dualcdb.SmallObjects, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	extra, err := dualcdb.GenerateRelation(dualcdb.WorkloadConfig{N: 3000, Size: dualcdb.SmallObjects, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	var fresh []string
	extra.Scan(func(tu *dualcdb.Tuple) bool {
		fresh = append(fresh, tu.String())
		return true
	})
	idx, err := dualcdb.CreateDatabase(path, rel, dualcdb.IndexOptions{Slopes: dualcdb.EquiangularSlopes(3), PoolPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { idx.Pool().Store().Close() })
	if err := idx.Save(); err != nil {
		t.Fatal(err)
	}
	saved := map[dualcdb.TupleID]string{}
	live := rel.IDs()
	rel.Scan(func(tu *dualcdb.Tuple) bool {
		saved[tu.ID()] = tu.String()
		return true
	})
	queries, err := dualcdb.GenerateQueries(rel, dualcdb.QueryWorkloadConfig{
		Count: 50, Kind: dualcdb.EXIST, SelectivityLo: 0.05, SelectivityHi: 0.15, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	pairs := 0
	for _, upTo := range []int{1, 8, 100, 3000} {
		for ; pairs < upTo; pairs++ {
			tu, err := dualcdb.ParseTuple(fresh[pairs%len(fresh)], 2)
			if err != nil {
				t.Fatal(err)
			}
			id, err := idx.Insert(tu)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
			j := rng.Intn(len(live))
			if err := idx.Delete(live[j]); err != nil {
				t.Fatal(err)
			}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		t.Run(fmt.Sprintf("pairs=%d", upTo), func(t *testing.T) {
			got, opened, err := dualcdb.OpenDatabase(path, 0)
			if err != nil {
				t.Fatalf("reopen after %d unsaved pairs: %v", upTo, err)
			}
			defer opened.Pool().Store().Close()
			if got.Len() != len(saved) {
				t.Fatalf("reopened relation holds %d tuples, saved %d", got.Len(), len(saved))
			}
			got.Scan(func(tu *dualcdb.Tuple) bool {
				if s, ok := saved[tu.ID()]; !ok || s != tu.String() {
					t.Fatalf("reopened tuple %d = %q, saved %q", tu.ID(), tu.String(), s)
				}
				return true
			})
			for _, q := range queries {
				want, err := q.Eval(got)
				if err != nil {
					t.Fatal(err)
				}
				res, err := opened.Query(q)
				if err != nil {
					t.Fatalf("%v: %v", q, err)
				}
				if !slices.Equal(res.IDs, want) {
					t.Fatalf("%v: index %d ids, scan %d", q, len(res.IDs), len(want))
				}
			}
		})
	}
}

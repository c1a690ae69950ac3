package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"dualcdb/internal/constraint"
	"dualcdb/internal/geom"
	"dualcdb/internal/pagestore"
)

// goldenRelation is the relation testdata/dcdb0006.cdb holds: bounded and
// unbounded tuples, an equality (which the parser writes as a pair of
// opposite inequalities), an unsatisfiable tuple, and after the build one
// insert and one delete.
var goldenRelation = []string{
	"x >= 0 && y >= 0 && x + y <= 4",
	"x >= 1 && x <= 3 && y >= -2 && y <= 1",
	"y >= 0.25x - 1 && y <= -0.5x + 3 && x >= -3.5",
	"y = 0.5x + 1 && x >= -1 && x <= 2",
	"x >= 0 && y >= 0",
	"y >= 2x + 1",
	"y >= x - 1 && y <= x + 2",
	"x >= 1 && x <= 0",
	"2x + 3y <= 12 && x - y >= -2 && y >= 0.5 && x <= 5.75",
}

// saveGolden builds the golden relation into a file store at path — T2 over
// three equiangular slopes, then one insert and the delete of tuple 2 — and
// saves it.
func saveGolden(t *testing.T, path string) {
	t.Helper()
	store, err := pagestore.OpenFileStore(path, pagestore.DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	rel := constraint.NewRelation(2)
	for _, src := range goldenRelation {
		if _, err := rel.Insert(parseTuple(t, src)); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := Build(rel, Options{Slopes: EquiangularSlopes(3), Technique: T2, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Insert(parseTuple(t, "x >= -2 && x <= -1 && y >= 3 && y <= 3.5")); err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete(2); err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(); err != nil {
		t.Fatal(err)
	}
}

func parseTuple(t *testing.T, src string) *constraint.Tuple {
	t.Helper()
	tup, err := constraint.ParseTuple(src, 2)
	if err != nil {
		t.Fatal(err)
	}
	return tup
}

// TestSaveMatchesGoldenFile pins the file format: this tree saves the golden
// relation byte for byte as testdata/dcdb0006.cdb, and opening that file
// answers every query kind as the Proposition 2.2 scan of the relation it
// restores. The file was written by saveGolden on the tree before tuples
// became flat runs, and is a fixed reference: nothing rewrites it. A format
// that changes the bytes bumps the magic, which makes this file the refused
// previous format (as dcdb0005.cdb is) and gets a golden file of its own.
func TestSaveMatchesGoldenFile(t *testing.T) {
	golden := filepath.Join("testdata", "dcdb0006.cdb")
	dir := t.TempDir()
	path := filepath.Join(dir, "saved.cdb")
	saveGolden(t, path)
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		t.Fatalf("saved file (%d bytes) differs from %s (%d bytes) from byte %d (page %d)", len(got), golden, len(want), i, i/pagestore.DefaultPageSize)
	}

	// Open a copy of the golden file itself: opening may write to its file.
	reopen := filepath.Join(dir, "golden.cdb")
	if err := os.WriteFile(reopen, want, 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := pagestore.OpenExistingFileStore(reopen, pagestore.DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	rel, ix, err := Open(pagestore.NewPool(store, 64))
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != len(goldenRelation) {
		t.Fatalf("reopened relation holds %d tuples, want %d", rel.Len(), len(goldenRelation))
	}
	for _, slope := range append([]float64{-2, -1, -0.3, 0.4, 4}, ix.Slopes()...) {
		for _, b := range []float64{-6, -2.5, -1, 0, 1, 2.5, 6} {
			for _, kind := range []constraint.QueryKind{constraint.EXIST, constraint.ALL} {
				for _, op := range []geom.Op{geom.LE, geom.GE} {
					q := constraint.Query2(kind, slope, b, op)
					res, err := ix.Query(q)
					if err != nil {
						t.Fatal(err)
					}
					want, err := q.Eval(rel)
					if err != nil {
						t.Fatal(err)
					}
					if !sameIDs(res.IDs, want) {
						t.Fatalf("%v on %s: %v, scan %v", q, res.Stats.Path, res.IDs, want)
					}
				}
			}
		}
	}
}

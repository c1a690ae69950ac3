package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"dualcdb/internal/btree"
	"dualcdb/internal/constraint"
	"dualcdb/internal/pagestore"
)

// setUpRelation is the relation TestSetUpIndependentOfGOMAXPROCS sets up:
// 4 400 ids, enough for four chunks of the prepare pass, with every tenth
// tuple drawn unbounded, a few unsatisfiable ones, a triangle whose BOT key is
// −0 at the negative slopes, and ids deleted inside the relation and at its
// end. With bad it also holds two tuples out of range, at ids 1800 and 4000 —
// in different chunks at 2 and at 4 goroutines; it returns them too.
func setUpRelation(t *testing.T, bad bool) (rel *constraint.Relation, low, high *constraint.Tuple) {
	t.Helper()
	const n = 4400
	rng := rand.New(rand.NewSource(56))
	rel = constraint.NewRelation(2)
	for id := 1; id <= n; id++ {
		var tp *constraint.Tuple
		switch {
		case bad && id == 1800:
			tp = parseTuple(t, "x >= 2000000 && x <= 2000001 && y >= 0 && y <= 1")
			low = tp
		case bad && id == 4000:
			tp = parseTuple(t, "x >= 3000000 && x <= 3000001 && y >= 0 && y <= 1")
			high = tp
		case id%500 == 7:
			tp = parseTuple(t, "x >= 1 && x <= 0")
		case id%500 == 11:
			tp = parseTuple(t, "x >= 0 && y >= 0 && x + y <= 1")
		default:
			tp = randTuple(rng, id%2 == 0) // unbounded one time in five
		}
		if _, err := rel.Insert(tp); err != nil {
			t.Fatal(err)
		}
	}
	for id := 5; id <= n; id += 300 {
		if err := rel.Delete(constraint.TupleID(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rel.Delete(n); err != nil {
		t.Fatal(err)
	}
	return rel, low, high
}

// TestSetUpIndependentOfGOMAXPROCS runs Build, Save, Open and
// RebuildHandicaps with the prepare pass split over 1, 2 and 4 goroutines: the
// saved files must be byte-identical, Open must restore the same relation with
// extent tables that agree with it, the rebuild must leave the same slots in
// every leaf, and a relation with two tuples out of range in different chunks
// must fail Build with the lower id's ErrTupleRange every time.
func TestSetUpIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	dir := t.TempDir()
	var file, tuples []byte
	var slots [][]uint64
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		rel, _, _ := setUpRelation(t, false)
		path := filepath.Join(dir, fmt.Sprintf("procs%d.cdb", procs))
		store, err := pagestore.OpenFileStore(path, pagestore.DefaultPageSize)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := Build(rel, Options{Slopes: EquiangularSlopes(4), Technique: T2, Store: store})
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.CheckInvariants(); err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		if negZero := negativeZeroKeys(t, ix); negZero == 0 {
			t.Fatalf("GOMAXPROCS %d: no tree holds a −0 key", procs)
		}
		if err := ix.Save(); err != nil {
			t.Fatal(err)
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if file == nil {
			file = got
		} else if !bytes.Equal(got, file) {
			t.Fatalf("GOMAXPROCS %d saves other bytes than GOMAXPROCS 1", procs)
		}

		store, err = pagestore.OpenExistingFileStore(path, pagestore.DefaultPageSize)
		if err != nil {
			t.Fatal(err)
		}
		opened, oix, err := Open(DefaultPool(store))
		if err != nil {
			t.Fatal(err)
		}
		enc, _, err := encodeRelation(opened)
		if err != nil {
			t.Fatal(err)
		}
		if want, _, _ := encodeRelation(rel); !bytes.Equal(enc, want) {
			t.Fatalf("GOMAXPROCS %d: Open restores another relation than was saved", procs)
		}
		if tuples == nil {
			tuples = enc
		} else if !bytes.Equal(enc, tuples) {
			t.Fatalf("GOMAXPROCS %d: Open restores another relation than at GOMAXPROCS 1", procs)
		}
		if rs := oix.roots.Load(); rs.indexed != ix.Len() {
			t.Fatalf("GOMAXPROCS %d: Open counts %d indexed tuples, Build %d", procs, rs.indexed, ix.Len())
		} else if err := rs.checkExtents(oix.geo); err != nil {
			t.Fatalf("GOMAXPROCS %d: after Open: %v", procs, err)
		}

		for id := 3; id <= 4400; id += 37 { // stale slots for the rebuild to undo
			if _, err := opened.Get(constraint.TupleID(id)); err == nil {
				if err := oix.Delete(constraint.TupleID(id)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := oix.RebuildHandicaps(); err != nil {
			t.Fatal(err)
		}
		if err := oix.CheckInvariants(); err != nil {
			t.Fatalf("GOMAXPROCS %d: after RebuildHandicaps: %v", procs, err)
		}
		got2, _ := leafSlots(t, oix)
		if slots == nil {
			slots = got2
		} else if !slices.EqualFunc(got2, slots, slices.Equal[[]uint64]) {
			t.Fatalf("GOMAXPROCS %d: RebuildHandicaps leaves other slots: %s", procs, firstSlotDiff(got2, slots))
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}

		rel, low, high := setUpRelation(t, true)
		_, err = Build(rel, Options{Slopes: EquiangularSlopes(4), Technique: T2})
		want := checkRange(low)
		if !errors.Is(err, ErrTupleRange) || err.Error() != want.Error() {
			t.Fatalf("GOMAXPROCS %d: Build with tuples %d and %d out of range: %v, want %v", procs, low.ID(), high.ID(), err, want)
		}
	}
}

// negativeZeroKeys counts the −0 keys the index's trees hold.
func negativeZeroKeys(t *testing.T, ix *Index) int {
	t.Helper()
	n := 0
	for _, tr := range ix.trees {
		err := tr.VisitLeavesAsc(math.Inf(-1), func(lv btree.LeafView) bool {
			for i := 0; i < lv.Len(); i++ {
				if k := lv.Key(i); k == 0 && math.Signbit(k) {
					n++
				}
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return n
}

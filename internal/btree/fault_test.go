package btree

import (
	"errors"
	"math"
	"testing"

	"dualcdb/internal/pagestore"
)

// Fault-injection tests: the tree must surface pager errors and remain
// structurally sound once the fault clears.

func newFaultTree(t *testing.T) (*Tree, *pagestore.FaultStore, *pagestore.Pool) {
	t.Helper()
	fs := pagestore.NewFaultStore(pagestore.NewMemStore(256))
	pool := pagestore.NewPool(fs, 64)
	tr, err := New(pool, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return tr, fs, pool
}

func TestInsertSurfacesAllocFault(t *testing.T) {
	tr, fs, _ := newFaultTree(t)
	// Fill one leaf so the next insert needs an allocation (split).
	for i := 0; i < tr.LeafCapacity(); i++ {
		if err := tr.Insert(float64(i), uint32(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	fs.FailAllocAfter(1)
	err := tr.Insert(1e9, 99999)
	if !errors.Is(err, pagestore.ErrInjected) {
		t.Fatalf("want injected fault, got %v", err)
	}
	fs.Disarm()
	// The tree must still be consistent and usable.
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(1e9, 99999); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSearchSurfacesReadFault(t *testing.T) {
	tr, fs, pool := newFaultTree(t)
	for i := 0; i < 500; i++ {
		if err := tr.Insert(float64(i), uint32(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.EvictAll(); err != nil {
		t.Fatal(err)
	}
	fs.FailReadAfter(2)
	err := tr.VisitLeavesAsc(math.Inf(-1), func(LeafView) bool { return true })
	if !errors.Is(err, pagestore.ErrInjected) {
		t.Fatalf("want injected fault, got %v", err)
	}
	fs.Disarm()
	got, err := tr.ScanAll()
	if err != nil || len(got) != 500 {
		t.Fatalf("recovery scan: %d, %v", len(got), err)
	}
}

func TestDeleteSurfacesReadFault(t *testing.T) {
	tr, fs, pool := newFaultTree(t)
	for i := 0; i < 500; i++ {
		if err := tr.Insert(float64(i), uint32(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.EvictAll(); err != nil {
		t.Fatal(err)
	}
	fs.FailReadAfter(1)
	if _, err := tr.Delete(250, 251); !errors.Is(err, pagestore.ErrInjected) {
		t.Fatalf("want injected fault, got %v", err)
	}
	fs.Disarm()
	found, err := tr.Delete(250, 251)
	if err != nil || !found {
		t.Fatalf("recovery delete: %v %v", found, err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSweepFaultReleasesItsPath fails the n-th page read of a cold sweep for
// every n the sweep makes, in both directions: the fault must surface and the
// cursor must hand back every frame it pinned — leaf and path alike.
func TestSweepFaultReleasesItsPath(t *testing.T) {
	tr, fs, pool := newFaultTree(t)
	for i := 0; i < 1500; i++ {
		if err := tr.Insert(float64(i), uint32(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() < 3 {
		t.Fatalf("height %d: no path below the root to release", tr.Height())
	}
	for _, asc := range []bool{true, false} {
		for n := 1; n <= tr.Pages(); n++ {
			if err := pool.EvictAll(); err != nil {
				t.Fatal(err)
			}
			fs.FailReadAfter(n)
			var err error
			if asc {
				err = tr.VisitLeavesAsc(math.Inf(-1), func(LeafView) bool { return true })
			} else {
				err = tr.Sweep(math.Inf(1), false, nil, nil, func(LeafView) bool { return true })
			}
			fs.Disarm()
			if !errors.Is(err, pagestore.ErrInjected) {
				t.Fatalf("asc=%v, read %d: want injected fault, got %v", asc, n, err)
			}
			if r := pool.Residency(); r.Pinned != 0 {
				t.Fatalf("asc=%v, read %d: %d frames still pinned after the fault", asc, n, r.Pinned)
			}
		}
	}
}

// TestMergeFaultReleasesItsPath fails the n-th clone of a slot-moving merge
// under a batch, for every page of the path it shadows: the fault must
// surface with nothing left pinned — the cursor's path, the leaf and the
// clones already made — and the aborted batch must leave slots and pages as
// they were.
func TestMergeFaultReleasesItsPath(t *testing.T) {
	fs := pagestore.NewFaultStore(pagestore.NewMemStore(256))
	pool := pagestore.NewPool(fs, 64)
	tr, err := New(pool, Config{HandicapKinds: []SlotKind{MinSlot}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1500; i++ {
		if err := tr.Insert(float64(i), uint32(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() < 3 {
		t.Fatalf("height %d: no path below the root to shadow", tr.Height())
	}
	before := slotsOf(walkLeaves(t, tr))
	allocated := fs.NumAllocated()
	for n := 1; n <= tr.Height(); n++ {
		tr.BeginCOW()
		fs.FailAllocAfter(n)
		err := tr.MergeHandicap(700, 0, -1)
		fs.Disarm()
		if !errors.Is(err, pagestore.ErrInjected) {
			t.Fatalf("clone %d: want injected fault, got %v", n, err)
		}
		if r := pool.Residency(); r.Pinned != 0 {
			t.Fatalf("clone %d: %d frames still pinned after the fault", n, r.Pinned)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("clone %d: the partly shadowed path is not a tree: %v", n, err)
		}
		if err := tr.AbortCOW(); err != nil {
			t.Fatal(err)
		}
		if got := slotsOf(walkLeaves(t, tr)); !sameSlots(got, before) || fs.NumAllocated() != allocated {
			t.Fatalf("clone %d: the aborted merge left slots %v (were %v) in %d pages (were %d)", n, got, before, fs.NumAllocated(), allocated)
		}
	}
}

// TestForeignLayoutIsRejected flips the layout byte of a leaf and of the
// root: every descent and sweep that reaches the page returns ErrLayout
// with nothing left pinned, and Restore refuses the root.
func TestForeignLayoutIsRejected(t *testing.T) {
	tr, pool := newTestTree(t, 256, nil)
	for i := 0; i < 500; i++ {
		if err := tr.Insert(float64(i), uint32(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	flip := func(id pagestore.PageID) {
		f, err := pool.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		f.Data()[offLayout] ^= 0xFF
		f.MarkDirty()
		f.Release()
	}
	leaf, err := tr.findLeaf(Entry{Key: 250, TID: 251})
	if err != nil {
		t.Fatal(err)
	}
	foreign := leaf.id()
	leaf.release()
	flip(foreign)

	if _, err := tr.Contains(250, 251); !errors.Is(err, ErrLayout) {
		t.Fatalf("Contains through a foreign leaf: %v", err)
	}
	for _, asc := range []bool{true, false} {
		seen := 0
		visit := func(lv LeafView) bool {
			if lv.Page == foreign {
				t.Fatal("sweep handed out the foreign leaf")
			}
			seen++
			return true
		}
		if asc {
			err = tr.VisitLeavesAsc(math.Inf(-1), visit)
		} else {
			err = tr.Sweep(math.Inf(1), false, nil, nil, visit)
		}
		if !errors.Is(err, ErrLayout) || seen == 0 {
			t.Fatalf("asc=%v: sweep across a foreign leaf: %d leaves, then %v", asc, seen, err)
		}
		if r := pool.Residency(); r.Pinned != 0 {
			t.Fatalf("asc=%v: %d frames still pinned", asc, r.Pinned)
		}
	}
	if err := tr.CheckInvariants(); !errors.Is(err, ErrLayout) {
		t.Fatalf("CheckInvariants over a foreign leaf: %v", err)
	}
	flip(foreign)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	flip(tr.Meta().Root)
	if _, err := Restore(pool, Config{}, tr.Meta()); !errors.Is(err, ErrLayout) {
		t.Fatalf("Restore over a foreign root: %v", err)
	}
}

// TestSweepOverCyclicLinksStops points an internal node's child link back at
// the node: the cursor's path is bounded, so a sweep — and a point lookup or
// an in-place handicap merge, which descend through the same cursor — returns
// an error with nothing left pinned instead of descending forever.
func TestSweepOverCyclicLinksStops(t *testing.T) {
	tr, pool := newTestTree(t, 256, nil)
	for i := 0; i < 500; i++ {
		if err := tr.Insert(float64(i), uint32(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	root, err := tr.get(tr.root)
	if err != nil {
		t.Fatal(err)
	}
	root.setChild(0, root.id())
	root.setChild(root.count(), root.id())
	root.release()
	if err := tr.VisitLeavesAsc(math.Inf(-1), func(LeafView) bool { return true }); err == nil {
		t.Fatal("ascending sweep into a cycle returned no error")
	}
	if err := tr.Sweep(math.Inf(1), false, nil, nil, func(LeafView) bool { return true }); err == nil {
		t.Fatal("descending sweep into a cycle returned no error")
	}
	if _, err := tr.Contains(0, 1); err == nil {
		t.Fatal("Contains into a cycle returned no error")
	}
	if err := tr.MergeHandicap(499, 0, 1); err == nil {
		t.Fatal("MergeHandicap into a cycle returned no error")
	}
	if r := pool.Residency(); r.Pinned != 0 {
		t.Fatalf("%d frames still pinned", r.Pinned)
	}
}

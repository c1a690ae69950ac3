package btree

import (
	"math"
	"testing"

	"dualcdb/internal/pagestore"
)

// FuzzPageDecode is the node half of page-decode fuzzing: it overwrites the
// start of one page of a three-level tree in the index's own shape — 1 KiB
// pages, four handicap slots, so 124 entries a leaf and 49 separators an
// internal node, every child bounded — the root, an inner node or a leaf,
// chosen by sel, with arbitrary bytes and drives every reader and writer over
// the result, a sweep under a skip test that reads every bound among them.
// Whatever the bytes, nothing may panic or hang and no frame may stay pinned;
// a page whose header this tree cannot have written is Tree.getTracked's
// ErrLayout. testdata/fuzz/FuzzPageDecode holds one input per header check
// that dropping the check would let through to an out-of-range read.
func FuzzPageDecode(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, sel uint8, data []byte) {
		kinds := []SlotKind{MinSlot, MinSlot, MaxSlot, MaxSlot}
		pool := pagestore.NewPool(pagestore.NewMemStore(1024), 256)
		tr, err := New(pool, Config{HandicapKinds: kinds})
		if err != nil {
			t.Fatal(err)
		}
		entries := make([]Entry, 10000) // 91 leaves under two internal nodes
		for i := range entries {
			entries[i] = Entry{Key: float64(i), TID: uint32(i + 1)}
		}
		ext := func(tid uint32) [2]float64 { return [2]float64{float64(tid%97) / 3, float64(tid%97)/3 + 1} }
		if err := tr.BulkLoad(entries); err != nil {
			t.Fatal(err)
		}
		if err := tr.SetHandicaps(nil, ext); err != nil {
			t.Fatal(err)
		}
		levels := nodesByLevel(t, tr)
		if len(levels) != 3 {
			t.Fatalf("tree of height %d, want 3", len(levels))
		}
		level := levels[int(sel)%3]
		id := level[int(sel)/3%len(level)]

		fr, err := pool.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		copy(fr.Data(), data)
		fr.MarkDirty()
		fr.Release()

		pinned := func(after string) {
			t.Helper()
			if r := pool.Residency(); r.Pinned != 0 {
				t.Fatalf("%d frames still pinned after %s", r.Pinned, after)
			}
		}
		_, _ = Restore(pool, Config{HandicapKinds: kinds}, tr.Meta())
		pinned("Restore")
		var leaf []Entry
		read := func(lv LeafView) bool {
			leaf = lv.AppendEntries(leaf[:0])
			for s := 0; s < lv.NumHandicaps(); s++ {
				_ = lv.Handicap(s)
			}
			return true
		}
		_ = tr.VisitLeavesAsc(math.Inf(-1), read)
		pinned("the ascending sweep")
		_ = tr.Sweep(math.Inf(1), false, nil, nil, read)
		pinned("the descending sweep")
		_ = tr.Sweep(5000, true, nil, func(b Bound) Step {
			if b.X[0] > 20 || b.Hi < b.Lo {
				return Pass
			}
			return Enter
		}, read)
		pinned("the sweep under a skip test")
		_, _ = tr.Contains(200, 201)
		pinned("Contains")
		tr.BeginCOW()
		_ = tr.InsertExt(200.5, 1000, [2]float64{-1, 1})
		_, _ = tr.Delete(100, 101)
		pinned("the batch's insert and delete")
		if err := tr.AbortCOW(); err != nil {
			t.Fatal(err)
		}
		pinned("AbortCOW")
		_ = tr.CheckInvariants()
		pinned("CheckInvariants")
	})
}

// nodesByLevel lists the tree's pages level by level from the root, reading
// the intact tree before any page is damaged.
func nodesByLevel(t *testing.T, tr *Tree) [][]pagestore.PageID {
	t.Helper()
	levels := [][]pagestore.PageID{{tr.root}}
	for h := tr.hgt; h > 1; h-- {
		var next []pagestore.PageID
		for _, id := range levels[len(levels)-1] {
			n, err := tr.get(id)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i <= n.count(); i++ {
				next = append(next, n.child(i))
			}
			n.release()
		}
		levels = append(levels, next)
	}
	return levels
}

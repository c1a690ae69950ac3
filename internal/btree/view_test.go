package btree

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dualcdb/internal/pagestore"
)

// refLeaf is the old decodeNode materialization, reimplemented straight
// from the documented page layout (no shared accessor code): the
// reference the zero-copy view is checked against.
type refLeaf struct {
	entries   []Entry
	handicaps []float64
	reserved  [8]byte
}

func refDecodeLeaf(t *testing.T, data []byte) refLeaf {
	t.Helper()
	if data[0] != typeLeaf {
		t.Fatalf("reference decode of non-leaf page (type %d)", data[0])
	}
	if data[1] != layoutVersion {
		t.Fatalf("unexpected layout version %d", data[1])
	}
	count := int(binary.LittleEndian.Uint16(data[2:4]))
	hOff := int(binary.LittleEndian.Uint16(data[4:6]))
	eOff := int(binary.LittleEndian.Uint16(data[6:8]))
	var r refLeaf
	copy(r.reserved[:], data[8:16])
	for off := hOff; off < eOff; off += 8 {
		r.handicaps = append(r.handicaps, math.Float64frombits(binary.LittleEndian.Uint64(data[off:off+8])))
	}
	for i := 0; i < count; i++ {
		off := eOff + i*entrySize
		r.entries = append(r.entries, Entry{
			Key: math.Float64frombits(binary.LittleEndian.Uint64(data[off : off+8])),
			TID: binary.LittleEndian.Uint32(data[off+8 : off+12]),
		})
	}
	return r
}

// TestQuickViewMatchesDecode builds trees from arbitrary entry sets,
// perturbs the handicap slots, and checks every LeafView accessor against
// an independent byte-level decode of the same page — the round-trip
// guarantee that the flat layout and the view agree on arbitrary encoded
// pages.
func TestQuickViewMatchesDecode(t *testing.T) {
	f := func(keys []uint16, seed int64) bool {
		tr, pool := newTestTree(t, 256, []SlotKind{MinSlot, MaxSlot})
		rng := rand.New(rand.NewSource(seed))
		inserted := 0
		for i, k := range keys {
			if err := tr.Insert(float64(k%512)/4, uint32(i+1)); err == nil {
				inserted++
			}
		}
		for i := 0; i < 1+inserted/10; i++ {
			route := float64(rng.Intn(512)) / 4
			_ = tr.MergeHandicap(route, rng.Intn(2), rng.NormFloat64()*100)
		}
		ok := true
		err := tr.VisitLeavesAsc(math.Inf(-1), func(lv LeafView) bool {
			f, err := pool.Get(lv.Page)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Release()
			ref := refDecodeLeaf(t, f.Data())
			if lv.Len() != len(ref.entries) || lv.NumHandicaps() != len(ref.handicaps) {
				ok = false
				return false
			}
			for i, e := range ref.entries {
				if lv.Entry(i) != e || lv.Key(i) != e.Key || lv.TID(i) != e.TID {
					ok = false
					return false
				}
			}
			for i, h := range ref.handicaps {
				got := lv.Handicap(i)
				if got != h && !(math.IsNaN(got) && math.IsNaN(h)) {
					ok = false
					return false
				}
			}
			var copied []Entry
			copied = lv.AppendEntries(copied)
			for i := range copied {
				if copied[i] != ref.entries[i] {
					ok = false
					return false
				}
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestViewMetaMatchesReference checks the meta side of the parse — count
// and region offsets — against the byte-level reference on every leaf of a
// tree grown by splits and thinned by merges, and that header bytes [8:16],
// where layout 1 kept sibling links, are zero on all of them.
func TestViewMetaMatchesReference(t *testing.T) {
	tr, pool := newTestTree(t, 256, []SlotKind{MinSlot})
	for i := 0; i < 2000; i++ {
		_ = tr.Insert(float64(i), uint32(i+1))
	}
	for i := 0; i < 2000; i += 3 {
		if _, err := tr.Delete(float64(i), uint32(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	visited := 0
	err := tr.VisitLeavesAsc(math.Inf(-1), func(lv LeafView) bool {
		f, err := pool.Get(lv.Page)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Release()
		m := parseMeta(f.Data(), f.Version())
		ref := refDecodeLeaf(t, f.Data())
		if !m.leaf || int(m.count) != len(ref.entries) || int(m.eOff-m.hOff)/8 != len(ref.handicaps) {
			t.Fatalf("page %d: meta (leaf %v, count %d, %d slots) vs reference (count %d, %d slots)",
				lv.Page, m.leaf, m.count, (m.eOff-m.hOff)/8, len(ref.entries), len(ref.handicaps))
		}
		if ref.reserved != [8]byte{} {
			t.Fatalf("page %d: reserved header bytes %x, want zero", lv.Page, ref.reserved)
		}
		visited++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if visited < 2 {
		t.Fatalf("tree too small to cross a leaf boundary: %d leaves", visited)
	}
}

// TestViewGuardCatchesUseAfterRelease is the regression test for the view
// borrow discipline: with the runtime guard on, a LeafView smuggled out of
// its sweep callback must panic when read after the sweep released (and
// the pool recycled) its frame, instead of silently returning another
// page's bytes.
func TestViewGuardCatchesUseAfterRelease(t *testing.T) {
	EnableViewGuard(true)
	defer EnableViewGuard(false)

	// A tiny pool guarantees the released frame is recycled promptly, but
	// the guard must fire even while the frame merely sits unpinned.
	pool := pagestore.NewPool(pagestore.NewMemStore(256), 8)
	tr, err := New(pool, Config{HandicapKinds: []SlotKind{MinSlot}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		_ = tr.Insert(float64(i), uint32(i+1))
	}

	var leaked LeafView
	if err := tr.VisitLeavesAsc(math.Inf(-1), func(lv LeafView) bool {
		leaked = lv // escapes the callback: the borrow ends when visit returns
		return false
	}); err != nil {
		t.Fatal(err)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("reading a LeafView after its frame was released did not panic under the view guard")
		}
	}()
	_ = leaked.Len()
}

// TestViewGuardAllowsUseWhilePinned is the counterpart: inside the
// callback, with the frame pinned, guarded accessors must work normally.
func TestViewGuardAllowsUseWhilePinned(t *testing.T) {
	EnableViewGuard(true)
	defer EnableViewGuard(false)
	tr, _ := newTestTree(t, 256, []SlotKind{MinSlot})
	for i := 0; i < 100; i++ {
		_ = tr.Insert(float64(i), uint32(i+1))
	}
	total := 0
	if err := tr.VisitLeavesAsc(math.Inf(-1), func(lv LeafView) bool {
		for i := 0; i < lv.Len(); i++ {
			total += int(lv.TID(i))
		}
		_ = lv.Handicap(0)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if want := 100 * 101 / 2; total != want {
		t.Fatalf("guarded sweep sum = %d, want %d", total, want)
	}
}

package btree

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
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
	for off := hOff; off < eOff; off += 4 {
		r.handicaps = append(r.handicaps, float64(math.Float32frombits(binary.LittleEndian.Uint32(data[off:off+4]))))
	}
	for i := 0; i < count; i++ {
		off := eOff + i*entrySize
		r.entries = append(r.entries, Entry{
			Key: float64(math.Float32frombits(binary.LittleEndian.Uint32(data[off : off+4]))),
			TID: binary.LittleEndian.Uint32(data[off+4 : off+8]),
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
			entries := lv.AppendEntries(nil)
			for i, e := range ref.entries {
				if entries[i] != e || lv.Key(i) != e.Key || lv.TID(i) != e.TID {
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
		m := parseMeta(f.Data())
		ref := refDecodeLeaf(t, f.Data())
		if int(m.count) != len(ref.entries) || int(m.eOff-m.hOff)/4 != len(ref.handicaps) {
			t.Fatalf("page %d: meta (count %d, %d slots) vs reference (count %d, %d slots)",
				lv.Page, m.count, (m.eOff-m.hOff)/4, len(ref.entries), len(ref.handicaps))
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
// its sweep callback must panic when read after the sweep released its
// frame, instead of silently returning another page's bytes — whether the
// frame merely sits unpinned, or was recycled and is pinned again at read
// time, for another page or for the same page id read back after EvictAll.
func TestViewGuardCatchesUseAfterRelease(t *testing.T) {

	pool := pagestore.NewPool(pagestore.NewMemStore(256), 8)
	tr, err := New(pool, Config{HandicapKinds: []SlotKind{MinSlot}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		_ = tr.Insert(float64(i), uint32(i+1))
	}
	leak := func() LeafView {
		var leaked LeafView
		if err := tr.VisitLeavesAsc(math.Inf(-1), func(lv LeafView) bool {
			leaked = lv // escapes the callback: the borrow ends when visit returns
			return false
		}); err != nil {
			t.Fatal(err)
		}
		return leaked
	}
	// repin recycles the leaked view's frame for page id and returns it
	// pinned: with only that frame resident, EvictAll pushes it last onto
	// the pool's freelist, and the next miss pops it.
	repin := func(lv LeafView, id pagestore.PageID) *pagestore.Frame {
		held, err := pool.Get(lv.Page)
		if err != nil {
			t.Fatal(err)
		}
		if err := pool.EvictAll(); err != nil { // everything but lv's frame
			t.Fatal(err)
		}
		held.Release()
		if err := pool.EvictAll(); err != nil { // lv's frame, last
			t.Fatal(err)
		}
		f, err := pool.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if f != lv.v.frame || !f.Pinned() || f.ID() != id {
			t.Fatalf("page %d did not land in the leaked view's frame", id)
		}
		return f
	}
	mustPanic := func(what string, read func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("reading a LeafView after %s did not panic under the view guard", what)
			}
		}()
		read()
	}

	released := leak()
	mustPanic("its frame was released", func() { _ = released.Len() })
	// The entry region is checked when it is taken, not when it is read.
	mustPanic("its frame was released (entry region)", func() { _ = released.Entries() })

	other := leak()
	f := repin(other, tr.root) // the root is not the first leaf: height ≥ 2
	mustPanic("its frame was recycled for another page", func() { _ = other.Key(0) })
	f.Release()

	same := leak()
	f = repin(same, same.Page)
	mustPanic("its frame was recycled for the same page", func() { _ = same.TID(0) })
	mustPanic("its frame was recycled for the same page (entry region)", func() { _ = same.Entries() })
	f.Release()
}

// TestViewGuardAllowsUseWhilePinned is the counterpart: inside the
// callback, with the frame pinned, guarded accessors and the entry region
// must work normally and agree.
func TestViewGuardAllowsUseWhilePinned(t *testing.T) {
	tr, _ := newTestTree(t, 256, []SlotKind{MinSlot})
	for i := 0; i < 100; i++ {
		_ = tr.Insert(float64(i), uint32(i+1))
	}
	total, inPlace := 0, 0
	if err := tr.VisitLeavesAsc(math.Inf(-1), func(lv LeafView) bool {
		for i := 0; i < lv.Len(); i++ {
			total += int(lv.TID(i))
		}
		es := lv.Entries()
		if es.Len() != lv.Len() {
			t.Fatalf("entry region holds %d entries, the leaf %d", es.Len(), lv.Len())
		}
		for i := 0; i < es.Len(); i++ {
			if es.Key(i) != lv.Key(i) {
				t.Fatalf("entry region key %d = %v, the leaf's %v", i, es.Key(i), lv.Key(i))
			}
			inPlace += int(es.TID(i))
		}
		_ = lv.Handicap(0)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if want := 100 * 101 / 2; total != want || inPlace != want {
		t.Fatalf("guarded sweep sum = %d through the accessors, %d through the entry region, want %d", total, inPlace, want)
	}
}

func scanKeys(t *testing.T, tr *Tree) []Entry {
	t.Helper()
	out, err := tr.ScanAll()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDirtiedPageStaleDecodeNeverServed: once a page is mutated, a sweep
// that already read it must observe the new contents — every pin parses the
// header in place, so no parse from before the write can be served.
func TestDirtiedPageStaleDecodeNeverServed(t *testing.T) {
	tr, _ := newTestTree(t, 256, []SlotKind{MinSlot})
	entries := make([]Entry, 400)
	for i := range entries {
		entries[i] = Entry{Key: float64(2 * i), TID: uint32(i + 1)}
	}
	if err := tr.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}
	// Read every leaf and inner node once.
	_ = scanKeys(t, tr)

	// Mutate: new entries landing in the middle of existing leaves, plus a
	// handicap update routed through an inner path already read.
	for i := 0; i < 50; i++ {
		if err := tr.Insert(float64(2*i+1), uint32(10000+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.MergeHandicap(100, 0, -42); err != nil {
		t.Fatal(err)
	}

	got := scanKeys(t, tr)
	if len(got) != 450 {
		t.Fatalf("scan after mutation returned %d entries, want 450 (stale header served?)", len(got))
	}
	for i := 0; i < 50; i++ {
		ok, err := tr.Contains(float64(2*i+1), uint32(10000+i))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("inserted entry (%d, %d) invisible after an earlier sweep", 2*i+1, 10000+i)
		}
	}
	seen := math.Inf(1)
	err := tr.VisitLeavesAsc(math.Inf(-1), func(lv LeafView) bool {
		if lv.Handicap(0) < seen {
			seen = lv.Handicap(0)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != -42 {
		t.Fatalf("handicap update invisible to a later sweep: min slot = %v, want -42", seen)
	}
}

// TestDecodeCacheAcrossEviction (named for the header cache it once guarded)
// drives the ABA hazard: mutate a page, let the pool evict it (writing it
// back), then re-read it into a recycled frame. The tree must read the page
// as written, never a header parsed before the eviction.
func TestDecodeCacheAcrossEviction(t *testing.T) {
	// A pool far smaller than the tree forces constant eviction.
	pool := pagestore.NewPool(pagestore.NewMemStore(256), 8)
	tr, err := New(pool, Config{HandicapKinds: []SlotKind{MinSlot}})
	if err != nil {
		t.Fatal(err)
	}
	ref := map[Entry]bool{}
	rng := rand.New(rand.NewSource(11))
	for op := 0; op < 2000; op++ {
		e := Entry{Key: float64(rng.Intn(200)), TID: uint32(rng.Intn(4) + 1)}
		if rng.Intn(3) > 0 {
			if err := tr.Insert(e.Key, e.TID); err == nil {
				ref[e] = true
			}
		} else {
			ok, err := tr.Delete(e.Key, e.TID)
			if err != nil {
				t.Fatal(err)
			}
			if ok != ref[e] {
				t.Fatalf("op %d: delete(%v) = %v, ref %v", op, e, ok, ref[e])
			}
			delete(ref, e)
		}
	}
	got := scanKeys(t, tr)
	want := make([]Entry, 0, len(ref))
	for e := range ref {
		want = append(want, e)
	}
	sort.Slice(want, func(i, j int) bool { return want[i].Less(want[j]) })
	if len(got) != len(want) {
		t.Fatalf("scan length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("entry %d: %v, want %v", i, got[i], want[i])
		}
	}
}

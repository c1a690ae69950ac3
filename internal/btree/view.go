package btree

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"

	"dualcdb/internal/pagestore"
)

// viewMeta is the parsed header of one page: everything a zero-copy reader
// needs that is not a per-record field. Parsing it is three 16-bit loads off
// a header Tree.getTracked has already checked, so every view parses its own
// (DESIGN.md §8.1: why there is no header cache).
type viewMeta struct {
	count      uint16
	hOff, eOff uint16
}

// parseMeta reads a page header.
func parseMeta(data []byte) viewMeta {
	return viewMeta{
		count: binary.LittleEndian.Uint16(data[offCount : offCount+2]),
		hOff:  binary.LittleEndian.Uint16(data[offHOff : offHOff+2]),
		eOff:  binary.LittleEndian.Uint16(data[offEOff : offEOff+2]),
	}
}

// nodeView is a zero-copy reader over a pinned page: the parsed header
// plus the frame's byte slice, addressed in place through the header's
// region offsets. Constructing one allocates nothing; every accessor
// compiles to a bounds-checked load off the page buffer.
//
// A view BORROWS the frame it was built from. It is valid only while that
// pin is held: Release hands the frame back to the pool, which recycles
// the buffer for other pages, so a view used after its frame's Release
// reads another page's bytes. EnableViewGuard checks this lifecycle at run
// time (a view must not be used after its frame's release); every btree and
// core test runs with it on.
type nodeView struct {
	frame    *pagestore.Frame
	data     []byte
	page     pagestore.PageID
	installs uint32 // the frame's install count when the view was built
	meta     viewMeta
}

// view overlays the pinned node n's parsed header onto its bytes. All view
// construction funnels through here (and through Tree.leafView), which is
// what lets the runtime view guard tie each view to the frame it borrows.
func (n node) view() nodeView {
	return nodeView{frame: n.frame, data: n.data, page: n.frame.ID(), installs: n.frame.Installs(), meta: parseMeta(n.data)}
}

// viewGuard enables the runtime borrow check on every LeafView accessor.
// Off by default: the guard costs one atomic load per accessor. The btree
// and core tests turn it on in TestMain.
var viewGuard atomic.Bool

// EnableViewGuard switches the runtime view-borrow guard on or off
// (process-wide). With the guard on, reading a LeafView after its backing
// frame was released — or after the frame was recycled for another page —
// panics instead of silently returning another page's bytes. There is no
// static check of the borrow; every btree and core test runs with the
// guard on, and that is the check.
func EnableViewGuard(on bool) { viewGuard.Store(on) }

// check panics when the view's borrow has ended: the frame is gone,
// unpinned, holding another page, or recycled since the view was built —
// re-pinned for the same page id included, which the install count tells.
func (v nodeView) check() {
	if v.frame == nil || !v.frame.Pinned() || v.frame.ID() != v.page || v.frame.Installs() != v.installs {
		panic(fmt.Sprintf("btree: view of page %d used after its frame was released", v.page))
	}
}

func (v nodeView) len() int { return int(v.meta.count) }

// entries is the node's entry region: count records of entrySize bytes from
// the header's entry offset, capped so that nothing past them is reachable.
func (v nodeView) entries() EntryRegion {
	off, end := int(v.meta.eOff), int(v.meta.eOff)+int(v.meta.count)*entrySize
	return EntryRegion(v.data[off:end:end])
}

func (v nodeView) entry(i int) Entry { return getRecord(v.data, int(v.meta.eOff)+i*entrySize) }

func (v nodeView) numHandicaps() int { return int(v.meta.eOff-v.meta.hOff) / slotSize }

func (v nodeView) handicap(i int) float64 { return getF32(v.data, int(v.meta.hOff)+i*slotSize) }

// LeafView is the zero-copy window onto one leaf handed to sweep
// callbacks: accessors read the pinned page bytes in place, so a sweep
// that touches every key allocates nothing. The view borrows the leaf's
// frame and is valid only for the duration of the callback — the sweep
// releases the frame when the callback returns, after which the buffer
// may be recycled for a different page. Callers must not retain a
// LeafView (or anything derived from its bytes without copying) past the
// callback; AppendEntries is the sanctioned way to copy entries out.
type LeafView struct {
	Page pagestore.PageID
	v    nodeView
	ext  [2]float64 // the leaf's bound, read off its parent's record
}

// Len returns the number of entries in the leaf.
func (lv LeafView) Len() int {
	if viewGuard.Load() {
		lv.v.check()
	}
	return lv.v.len()
}

// Key returns entry i's stored key — a float32, RoundKey of the key it was
// inserted under — without decoding its tuple id.
func (lv LeafView) Key(i int) float64 {
	if viewGuard.Load() {
		lv.v.check()
	}
	return lv.v.entries().Key(i)
}

// TID returns entry i's tuple id without decoding its key.
func (lv LeafView) TID(i int) uint32 {
	if viewGuard.Load() {
		lv.v.check()
	}
	return lv.v.entries().TID(i)
}

// Entries returns the leaf's entry region: the pinned page's bytes in place,
// not a copy, for a loop over every entry that pays no per-entry call. The
// view guard is checked here, at the call, and at no read of the region, so
// the region obeys the view's borrow rule with nothing to catch a breach: it
// is valid only inside the sweep callback that got the view, and must not be
// retained past it — copy out what must outlive the callback.
func (lv LeafView) Entries() EntryRegion {
	if viewGuard.Load() {
		lv.v.check()
	}
	return lv.v.entries()
}

// EntryRegion is a leaf's entries as they lie on the page, in composite key
// order: entry i is its stored key, a little-endian float32, and its tuple
// id, a little-endian uint32, at byte i·8. Its accessors are fixed-offset
// loads small enough to inline, so a loop over the region costs no call per
// entry.
type EntryRegion []byte

// Len returns the number of entries in the region.
func (r EntryRegion) Len() int { return len(r) / entrySize }

// Key returns entry i's stored key, widened to float64.
func (r EntryRegion) Key(i int) float64 {
	return float64(math.Float32frombits(binary.LittleEndian.Uint32(r[i*entrySize : i*entrySize+4])))
}

// TID returns entry i's tuple id.
func (r EntryRegion) TID(i int) uint32 {
	return binary.LittleEndian.Uint32(r[i*entrySize+4 : i*entrySize+8])
}

// Entry returns entry i's stored key, widened to float64, and its tuple id,
// read in one load.
func (r EntryRegion) Entry(i int) (float64, uint32) {
	w := binary.LittleEndian.Uint64(r[i*entrySize : i*entrySize+8])
	return float64(math.Float32frombits(uint32(w))), uint32(w >> 32)
}

// Slice returns entries i to j−1 as a region of their own.
func (r EntryRegion) Slice(i, j int) EntryRegion { return r[i*entrySize : j*entrySize] }

// NumHandicaps returns the number of handicap slots stored on the leaf.
func (lv LeafView) NumHandicaps() int {
	if viewGuard.Load() {
		lv.v.check()
	}
	return lv.v.numHandicaps()
}

// Handicap returns the value of handicap slot `slot`.
func (lv LeafView) Handicap(slot int) float64 {
	if viewGuard.Load() {
		lv.v.check()
	}
	return lv.v.handicap(slot)
}

// Extent returns the leaf's bound: an [infX, supX] holding the x-extent of
// every entry in it, as its parent's record keeps it; NoExtent for a leaf
// that is the root. It is a value, not a view of the page, so it needs no
// guard.
func (lv LeafView) Extent() [2]float64 { return lv.ext }

// AppendEntries appends the leaf's entries to dst and returns it — the
// copy-out primitive for callers that need the entries to outlive the
// sweep callback.
func (lv LeafView) AppendEntries(dst []Entry) []Entry {
	if viewGuard.Load() {
		lv.v.check()
	}
	n := lv.v.len()
	if cap(dst)-len(dst) < n {
		grown := make([]Entry, len(dst), len(dst)+n)
		copy(grown, dst)
		dst = grown
	}
	for i := 0; i < n; i++ {
		dst = append(dst, lv.v.entry(i))
	}
	return dst
}

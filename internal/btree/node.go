// Package btree implements the disk-based B⁺-tree underlying the paper's
// dual-representation index (Sections 3 and 4): float32 keys — the paper's
// 4-byte values, rounded from float64 by RoundKey on the way in — with
// duplicate support via (key, tuple-id) composites, upward and downward leaf
// sweeps from a root-to-leaf cursor (cursor.go), bulk loading, and a
// configurable number of per-leaf auxiliary slots that hold the "handicap
// values" of technique T2 (Section 4.2).
//
// Pages are managed through pagestore.Pool, so every traversal is charged
// to the shared I/O counters that the experiment harness reports. Sweeps
// read pages through nodeView (view.go) — a zero-copy overlay on the
// pinned frame's bytes — rather than materializing entries into slices.
package btree

import (
	"encoding/binary"
	"math"

	"dualcdb/internal/pagestore"
)

// Entry is one indexed value: a surface value (TOP^P or BOT^P at some
// slope) and the tuple it belongs to. Entries are ordered by (Key, TID);
// the TID tiebreak makes duplicates well ordered. The tree stores
// RoundKey(Key), and every key it hands back is such a stored one.
type Entry struct {
	Key float64
	TID uint32
}

// RoundKey is the key the tree stores for k: k rounded to the nearest
// float32, widened back to float64. Every key that enters a tree — inserted,
// deleted, bulk-loaded, a sweep's start, a handicap's route — goes through
// it, so a stored key reads back bit-exact. Rounding to nearest is monotone
// (k ≤ k' ⇒ RoundKey(k) ≤ RoundKey(k')): a key range [lo, hi] rounded at both
// ends retrieves every key the unrounded range holds. A finite k beyond
// float32's range becomes ±Inf.
func RoundKey(k float64) float64 { return float64(float32(k)) }

// RoundingError bounds |k − RoundKey(k)| for every k whose stored key has
// magnitude at most m: one float32 ulp relative to m — twice the
// round-to-nearest error — plus float32's smallest subnormal, which covers
// keys rounded to or within the subnormal range.
func RoundingError(m float64) float64 { return m*0x1p-23 + 0x1p-149 }

// Less reports whether e precedes o in composite order.
func (e Entry) Less(o Entry) bool {
	if e.Key != o.Key { // tree order must be an exact total order over the stored key bits
		return e.Key < o.Key
	}
	return e.TID < o.TID
}

// Compare orders entries in composite order for slices.SortFunc.
func (e Entry) Compare(o Entry) int {
	switch {
	case e.Less(o):
		return -1
	case o.Less(e):
		return 1
	default:
		return 0
	}
}

// SlotKind declares how a handicap slot combines values, which also fixes
// its identity element and its conservative merge direction:
// MinSlot accumulates minima (identity +Inf, e.g. the paper's low_j values),
// MaxSlot accumulates maxima (identity −Inf, e.g. high_j values).
type SlotKind int

const (
	// MinSlot accumulates minima; smaller is more conservative.
	MinSlot SlotKind = iota
	// MaxSlot accumulates maxima; larger is more conservative.
	MaxSlot
)

// Identity returns the slot's identity element.
func (k SlotKind) Identity() float64 {
	if k == MinSlot {
		return math.Inf(1)
	}
	return math.Inf(-1)
}

// Combine merges two slot values according to the kind.
func (k SlotKind) Combine(a, b float64) float64 {
	if k == MinSlot {
		return math.Min(a, b)
	}
	return math.Max(a, b)
}

// round returns the float32 the slot stores for v, rounded outward — down for
// a MinSlot, up for a MaxSlot — so a stored slot bounds v on the side its kind
// bounds values. Rounding either way is monotone, so combining rounded values
// equals rounding the combined value.
func (k SlotKind) round(v float64) float64 {
	if k == MinSlot {
		return float64(down32(v))
	}
	return float64(up32(v))
}

// down32 and up32 round x to a float32 at or below, at or above it.
func down32(x float64) float32 {
	f := float32(x)
	if float64(f) > x {
		f = math.Nextafter32(f, float32(math.Inf(-1)))
	}
	return f
}

func up32(x float64) float32 {
	f := float32(x)
	if float64(f) < x {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return f
}

// NoExtent is the x-extent of an entry inserted without one: the whole line,
// which no bound can exclude.
var NoExtent = [2]float64{math.Inf(-1), math.Inf(1)}

// emptyExtent is the extent of no entry, the identity of Union.
var emptyExtent = [2]float64{math.Inf(1), math.Inf(-1)}

// Union returns the smallest extent holding both a and b.
func Union(a, b [2]float64) [2]float64 {
	return [2]float64{min(a[0], b[0]), max(a[1], b[1])}
}

// roundOut rounds x outward to the float32s a bound stores: infX down, supX
// up.
func roundOut(x [2]float64) [2]float64 { return [2]float64{float64(down32(x[0])), float64(up32(x[1]))} }

// Holds reports whether extent a holds extent b; an empty b is held by any a.
func Holds(a, b [2]float64) bool {
	return b[0] > b[1] || (a[0] <= b[0] && b[1] <= a[1])
}

// Page layout (version 4, catalog format "DCDB0006"). Every node starts with a
// 16-byte header whose region offsets make the body self-describing — a reader slices the
// page in place instead of re-deriving offsets from a slot count:
//
//	[0]     node type (1 = leaf, 2 = internal)
//	[1]     layout version (currently 4; any other value is ErrLayout)
//	[2:4]   count (uint16): entries in a leaf, separators in an internal node
//	[4:6]   hOff (uint16): offset of the handicap region (leaves) or of the
//	        leftmost child's record (internal nodes); today always 16
//	[6:8]   eOff (uint16): offset of the entry region (leaves: hOff + 4·H,
//	        so H = (eOff−hOff)/4) or of the separator records (internal: 28)
//	[8:16]  reserved: written as zero, never read
//
// Leaf body:     handicap region at hOff (H × float32, each rounded outward:
//
//	a MinSlot down, a MaxSlot up), entry region at eOff (count × 8-byte
//	entries: float32 key 4, tid 4).
//
// Internal body: child0's record at hOff (child 4, infX 4, supX 4), then
//
//	count × 20-byte separator records at eOff (float32 sepKey 4, sepTID 4,
//	rightChild 4, then the right child's float32 infX 4 and supX 4).
//
// A child's [infX, supX] — its bound — holds the x-extent of every entry of
// its subtree, rounded outward (infX down, supX up): what lets a sweep pass a
// subtree it need not read (cursor.go).
//
// At 1 KiB with four handicap slots a leaf holds 124 entries and an internal
// node 49 separators. All regions are fixed-width and offset-addressed, so
// nodeView (view.go) reads any field with one bounds-checked load off the
// pinned frame.
const (
	headerSize    = 16
	entrySize     = 8
	slotSize      = 4
	childRecSize  = 12 // child, infX, supX
	intRecSize    = 8 + childRecSize
	typeLeaf      = 1
	typeInternal  = 2
	layoutVersion = 4

	offType   = 0
	offLayout = 1
	offCount  = 2
	offHOff   = 4
	offEOff   = 6
	offRsvd   = 8
)

type node struct {
	frame *pagestore.Frame
	data  []byte
}

func wrap(f *pagestore.Frame) node { return node{frame: f, data: f.Data()} }

func (n node) id() pagestore.PageID { return n.frame.ID() }
func (n node) isLeaf() bool         { return n.data[offType] == typeLeaf }
func (n node) count() int           { return int(binary.LittleEndian.Uint16(n.data[offCount : offCount+2])) }
func (n node) setCount(c int) {
	binary.LittleEndian.PutUint16(n.data[offCount:offCount+2], uint16(c))
	n.frame.MarkDirty()
}
func (n node) hOff() int { return int(binary.LittleEndian.Uint16(n.data[offHOff : offHOff+2])) }
func (n node) eOff() int { return int(binary.LittleEndian.Uint16(n.data[offEOff : offEOff+2])) }
func (n node) release()  { n.frame.Release() }

// --- Leaf accessors ---

func (n node) initLeaf(numHandicaps int, kinds []SlotKind) {
	n.data[offType] = typeLeaf
	n.data[offLayout] = layoutVersion
	binary.LittleEndian.PutUint16(n.data[offHOff:offHOff+2], uint16(headerSize))
	binary.LittleEndian.PutUint16(n.data[offEOff:offEOff+2], uint16(headerSize+slotSize*numHandicaps))
	clear(n.data[offRsvd:headerSize])
	n.setCount(0)
	for i := 0; i < numHandicaps; i++ {
		n.setHandicap(i, kinds[i].Identity())
	}
	n.frame.MarkDirty()
}

func (n node) numHandicaps() int { return (n.eOff() - n.hOff()) / slotSize }

func (n node) handicap(i int) float64 { return getF32(n.data, n.hOff()+i*slotSize) }

// setHandicap stores v, which must be a float32 (SlotKind.round's).
func (n node) setHandicap(i int, v float64) {
	putF32(n.data, n.hOff()+i*slotSize, float32(v))
	n.frame.MarkDirty()
}

func getF32(data []byte, off int) float64 {
	return float64(math.Float32frombits(binary.LittleEndian.Uint32(data[off : off+4])))
}

func putF32(data []byte, off int, f float32) {
	binary.LittleEndian.PutUint32(data[off:off+4], math.Float32bits(f))
}

func (n node) entriesOff() int { return n.eOff() }

func (n node) entry(i int) Entry {
	return getRecord(n.data, n.entriesOff()+i*entrySize)
}

// setEntry writes e, whose key must be a stored one (RoundKey's).
func (n node) setEntry(i int, e Entry) {
	putRecord(n.data, n.entriesOff()+i*entrySize, e)
	n.frame.MarkDirty()
}

// getRecord and putRecord read and write the (float32 key, tid) pair that
// starts a leaf entry and a separator record at off.
func getRecord(data []byte, off int) Entry {
	return Entry{
		Key: float64(math.Float32frombits(binary.LittleEndian.Uint32(data[off : off+4]))),
		TID: binary.LittleEndian.Uint32(data[off+4 : off+8]),
	}
}

func putRecord(data []byte, off int, e Entry) {
	binary.LittleEndian.PutUint32(data[off:off+4], math.Float32bits(float32(e.Key)))
	binary.LittleEndian.PutUint32(data[off+4:off+8], e.TID)
}

// insertEntryAt shifts entries [i:count) right by one and writes e at i.
func (n node) insertEntryAt(i int, e Entry) {
	c := n.count()
	off := n.entriesOff()
	copy(n.data[off+(i+1)*entrySize:off+(c+1)*entrySize], n.data[off+i*entrySize:off+c*entrySize])
	n.setEntry(i, e)
	n.setCount(c + 1)
}

// removeEntryAt shifts entries left over position i.
func (n node) removeEntryAt(i int) {
	c := n.count()
	off := n.entriesOff()
	copy(n.data[off+i*entrySize:off+(c-1)*entrySize], n.data[off+(i+1)*entrySize:off+c*entrySize])
	n.setCount(c - 1)
}

// searchLeaf returns the first position whose entry is ≥ e.
func (n node) searchLeaf(e Entry) int {
	lo, hi := 0, n.count()
	for lo < hi {
		mid := (lo + hi) / 2
		if n.entry(mid).Less(e) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// --- Internal-node accessors ---

func (n node) initInternal() {
	n.data[offType] = typeInternal
	n.data[offLayout] = layoutVersion
	binary.LittleEndian.PutUint16(n.data[offHOff:offHOff+2], uint16(headerSize))
	binary.LittleEndian.PutUint16(n.data[offEOff:offEOff+2], uint16(headerSize+childRecSize))
	clear(n.data[offRsvd:headerSize])
	n.setCount(0)
	n.frame.MarkDirty()
}

// childOff is the offset of child i's pointer, followed by its bound.
func (n node) childOff(i int) int {
	if i == 0 {
		return n.hOff()
	}
	return n.eOff() + (i-1)*intRecSize + 8
}

func (n node) child(i int) pagestore.PageID {
	off := n.childOff(i)
	return pagestore.PageID(binary.LittleEndian.Uint32(n.data[off : off+4]))
}

func (n node) setChild(i int, p pagestore.PageID) {
	off := n.childOff(i)
	binary.LittleEndian.PutUint32(n.data[off:off+4], uint32(p))
	n.frame.MarkDirty()
}

// childExt returns child i's bound: [infX, supX] over its subtree.
func (n node) childExt(i int) [2]float64 {
	off := n.childOff(i) + 4
	return [2]float64{getF32(n.data, off), getF32(n.data, off+4)}
}

// setChildExt stores x as child i's bound, rounded outward.
func (n node) setChildExt(i int, x [2]float64) {
	off, x := n.childOff(i)+4, roundOut(x)
	putF32(n.data, off, float32(x[0]))
	putF32(n.data, off+4, float32(x[1]))
	n.frame.MarkDirty()
}

// widenChild widens child i's bound to hold x, writing only when it moves.
func (n node) widenChild(i int, x [2]float64) {
	if old := n.childExt(i); !Holds(old, x) {
		n.setChildExt(i, Union(old, x))
	}
}

func (n node) sep(i int) Entry { return getRecord(n.data, n.eOff()+i*intRecSize) }

func (n node) setSep(i int, e Entry) {
	putRecord(n.data, n.eOff()+i*intRecSize, e)
	n.frame.MarkDirty()
}

// insertSepAt inserts separator e with right child rc, bounded by x, at
// separator slot i.
func (n node) insertSepAt(i int, e Entry, rc pagestore.PageID, x [2]float64) {
	c := n.count()
	base := n.eOff()
	copy(n.data[base+(i+1)*intRecSize:base+(c+1)*intRecSize], n.data[base+i*intRecSize:base+c*intRecSize])
	n.setSep(i, e)
	n.setChild(i+1, rc)
	n.setChildExt(i+1, x)
	n.setCount(c + 1)
}

// removeSepAt removes separator i together with its right child pointer and
// that child's bound.
func (n node) removeSepAt(i int) {
	c := n.count()
	base := n.eOff()
	copy(n.data[base+i*intRecSize:base+(c-1)*intRecSize], n.data[base+(i+1)*intRecSize:base+c*intRecSize])
	n.setCount(c - 1)
}

// childIndex returns the child to descend into for entry e: the first
// separator strictly greater than e guards the child to its left.
func (n node) childIndex(e Entry) int {
	lo, hi := 0, n.count()
	for lo < hi {
		mid := (lo + hi) / 2
		if e.Less(n.sep(mid)) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

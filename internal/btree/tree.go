package btree

import (
	"errors"
	"fmt"
	"sync/atomic"

	"dualcdb/internal/pagestore"
)

// Config parameterizes a tree.
type Config struct {
	// HandicapKinds declares the per-leaf auxiliary slots: one entry per
	// slot, fixing how values merge (MinSlot or MaxSlot). May be empty for
	// a plain B⁺-tree. At most maxHandicaps slots.
	HandicapKinds []SlotKind
}

// DefaultFillFactor is the leaf occupancy BulkLoad fills to.
const DefaultFillFactor = 0.9

// maxHandicaps bounds Config.HandicapKinds.
const maxHandicaps = 8

// Tree is a disk-based B⁺-tree over (float32, uint32) composite keys; its API
// takes float64 keys and stores RoundKey of each.
type Tree struct {
	pool  *pagestore.Pool
	cfg   Config
	root  pagestore.PageID
	hgt   int // 1 = root is a leaf
	size  int
	pages int // pages owned by this tree

	// rootExt is the root's bound, which no parent record keeps, rounded
	// outward as a record is: what a root split gives both halves. Insert
	// widens it; a delete leaves it as it is.
	rootExt [2]float64

	// pendingFree holds pages emptied by merges; they are still pinned when
	// the merge runs, so Delete frees them after the recursion unwinds.
	pendingFree []pagestore.PageID

	// stats is shared between a tree and every read handle derived from it
	// (the atomics make treeStats non-copyable, so it lives behind one
	// pointer).
	stats *treeStats

	// cow, when non-nil, is the open copy-on-write batch — it points at
	// batch, the bookkeeping the tree reuses from batch to batch; nil selects
	// the legacy in-place mutation mode.
	cow, batch *cowState

	leafCap int
	intCap  int
}

// treeStats holds the traversal counters (atomics: sweeps run
// concurrently). descents counts root-to-leaf searches, leavesVisited the
// leaves snapshotted by sweeps.
type treeStats struct {
	descents      atomic.Uint64
	leavesVisited atomic.Uint64
}

// ErrDuplicate is returned when inserting an entry that already exists.
var ErrDuplicate = errors.New("btree: duplicate entry")

// ErrNotEmpty is returned when bulk loading a non-empty tree.
var ErrNotEmpty = errors.New("btree: tree not empty")

// ErrLayout is returned when a page read as a node does not carry the
// current layout version, or carries a header this tree cannot have written
// (Tree.getTracked): a file written by another format, or damage.
var ErrLayout = errors.New("btree: node header does not match the layout")

// New creates an empty tree whose pages are allocated from pool.
func New(pool *pagestore.Pool, cfg Config) (*Tree, error) {
	t := &Tree{pool: pool, cfg: cfg, stats: &treeStats{}, rootExt: emptyExtent}
	if err := t.configure(); err != nil {
		return nil, err
	}
	f, err := pool.NewPage()
	if err != nil {
		return nil, err
	}
	n := wrap(f)
	n.initLeaf(len(cfg.HandicapKinds), cfg.HandicapKinds)
	t.root = n.id()
	t.hgt = 1
	t.pages = 1
	n.release()
	return t, nil
}

// configure validates the config and sizes the nodes for the pool's pages.
func (t *Tree) configure() error {
	if len(t.cfg.HandicapKinds) > maxHandicaps {
		return fmt.Errorf("btree: too many handicap slots (%d)", len(t.cfg.HandicapKinds))
	}
	ps := t.pool.PageSize()
	t.leafCap = (ps - headerSize - slotSize*len(t.cfg.HandicapKinds)) / entrySize
	t.intCap = (ps - headerSize - childRecSize) / intRecSize
	if t.leafCap < 3 || t.intCap < 3 {
		return fmt.Errorf("btree: page size %d too small", ps)
	}
	return nil
}

// Len returns the number of entries.
func (t *Tree) Len() int { return t.size }

// Height returns the tree height (1 = a single leaf).
func (t *Tree) Height() int { return t.hgt }

// Pages returns the number of pages the tree occupies.
func (t *Tree) Pages() int { return t.pages }

// LeafCapacity returns the per-leaf entry capacity (for tests and sizing).
func (t *Tree) LeafCapacity() int { return t.leafCap }

// InternalCapacity returns the separators an internal node holds; it has one
// child more.
func (t *Tree) InternalCapacity() int { return t.intCap }

// Meta is the tree's persistent root metadata: everything needed to
// reattach to its pages after a restart.
type Meta struct {
	Root   pagestore.PageID
	Height int
	Size   int
	Pages  int
}

// Meta snapshots the tree's root metadata.
func (t *Tree) Meta() Meta {
	return Meta{Root: t.root, Height: t.hgt, Size: t.size, Pages: t.pages}
}

// Restore reattaches a tree to existing pages described by m. The Config
// must match the one the tree was created with (same handicap slots and
// page size); this is checked against the root page where possible.
func Restore(pool *pagestore.Pool, cfg Config, m Meta) (*Tree, error) {
	if m.Root == pagestore.InvalidPage || m.Height < 1 {
		return nil, fmt.Errorf("btree: invalid metadata %+v", m)
	}
	t := &Tree{pool: pool, cfg: cfg, root: m.Root, hgt: m.Height, size: m.Size, pages: m.Pages, stats: &treeStats{}}
	if err := t.configure(); err != nil {
		return nil, err
	}
	// Sanity: the root page must be a node of this tree's header at the
	// metadata's height. Its bound is the union of its children's, or the
	// whole line for a leaf, whose entries' extents the tree does not keep.
	n, err := t.getAt(m.Root, m.Height)
	if err != nil {
		return nil, fmt.Errorf("btree: restore root: %w", err)
	}
	t.rootExt = NoExtent
	if !n.isLeaf() {
		t.rootExt = emptyExtent
		for i := 0; i <= n.count(); i++ {
			t.rootExt = Union(t.rootExt, n.childExt(i))
		}
	}
	n.release()
	return t, nil
}

// NumHandicaps returns the number of per-leaf handicap slots.
func (t *Tree) NumHandicaps() int { return len(t.cfg.HandicapKinds) }

func (t *Tree) get(id pagestore.PageID) (node, error) {
	return t.getTracked(id, nil)
}

// getTracked pins a page as a node, attributing a cache miss to rc when
// non-nil (the per-query I/O accounting of concurrent sweeps). Every pin
// checks the whole header against what this tree writes — layout version,
// type, region offsets and a count that fits the page — so a page of another
// layout, or a damaged one, is ErrLayout here and every accessor after it
// stays inside the page.
func (t *Tree) getTracked(id pagestore.PageID, rc *pagestore.ReadCounter) (node, error) {
	f, err := t.pool.GetTracked(id, rc)
	if err != nil {
		return node{}, err
	}
	n := wrap(f)
	if err := t.checkHeader(n); err != nil {
		n.release()
		return node{}, fmt.Errorf("%w: page %d %s", ErrLayout, id, err)
	}
	return n, nil
}

// checkHeader describes how n's header differs from every header this tree
// writes (initLeaf, initInternal and the count bounds of splits and bulk
// loads), or returns nil.
func (t *Tree) checkHeader(n node) error {
	if v := n.data[offLayout]; v != layoutVersion {
		return fmt.Errorf("has layout version %d, want %d", v, layoutVersion)
	}
	eOff, capacity := headerSize+slotSize*len(t.cfg.HandicapKinds), t.leafCap
	switch n.data[offType] {
	case typeLeaf:
	case typeInternal:
		eOff, capacity = headerSize+childRecSize, t.intCap
	default:
		return fmt.Errorf("has node type %d", n.data[offType])
	}
	if n.hOff() != headerSize || n.eOff() != eOff || n.count() > capacity {
		return fmt.Errorf("header (type %d, hOff %d, eOff %d, count %d) is not one of this tree's (hOff %d, eOff %d, count ≤ %d)",
			n.data[offType], n.hOff(), n.eOff(), n.count(), headerSize, eOff, capacity)
	}
	return nil
}

// getAt pins the node at id that a descent expects at height (1 = a leaf):
// a node of the other type there is a corrupt child link, caught before
// leaf offsets are read as separators or the reverse.
func (t *Tree) getAt(id pagestore.PageID, height int) (node, error) {
	n, err := t.get(id)
	if err != nil || n.isLeaf() == (height == 1) {
		return n, err
	}
	n.release()
	return node{}, fmt.Errorf("%w: page %d is the wrong node type for height %d: corrupt child links", ErrLayout, id, height)
}

func (t *Tree) newLeaf() (node, error) {
	f, err := t.pool.NewPage()
	if err != nil {
		return node{}, err
	}
	n := wrap(f)
	n.initLeaf(len(t.cfg.HandicapKinds), t.cfg.HandicapKinds)
	if t.cow != nil {
		t.cow.owned[n.id()] = true
	}
	t.pages++
	return n, nil
}

func (t *Tree) newInternal() (node, error) {
	f, err := t.pool.NewPage()
	if err != nil {
		return node{}, err
	}
	n := wrap(f)
	n.initInternal()
	if t.cow != nil {
		t.cow.owned[n.id()] = true
	}
	t.pages++
	return n, nil
}

// findLeaf descends to the leaf that owns entry e, returning it pinned: the
// cursor's descent, so a child-link cycle or a page of another layout is the
// same error here as in a sweep.
func (t *Tree) findLeaf(e Entry) (node, error) {
	c := cursor{t: t}
	defer c.close()
	return c.find(e)
}

// SweepStats counts tree-traversal activity: root-to-leaf descents
// (searches, sweep starts, handicap routing) and leaves snapshotted by
// sweeps. Monotone over the tree's lifetime.
type SweepStats struct {
	Descents      uint64 `json:"descents"`
	LeavesVisited uint64 `json:"leaves_visited"`
}

// Add accumulates other into s (for summing stats across trees).
func (s *SweepStats) Add(o SweepStats) {
	s.Descents += o.Descents
	s.LeavesVisited += o.LeavesVisited
}

// SweepStats returns the tree's traversal counters.
func (t *Tree) SweepStats() SweepStats {
	return SweepStats{
		Descents:      t.stats.descents.Load(),
		LeavesVisited: t.stats.leavesVisited.Load(),
	}
}

// Contains reports whether the entry (RoundKey(key), tid) is present.
func (t *Tree) Contains(key float64, tid uint32) (bool, error) {
	e := Entry{Key: RoundKey(key), TID: tid}
	leaf, err := t.findLeaf(e)
	if err != nil {
		return false, err
	}
	defer leaf.release()
	i := leaf.searchLeaf(e)
	return i < leaf.count() && leaf.entry(i) == e, nil
}

// Insert adds (RoundKey(key), tid). ErrDuplicate if that pair is present.
// Under an open copy-on-write batch the mutated path is shadowed into
// batch-owned pages and the tree's root moves to the shadow copy; the
// previously published root is untouched. The entry has no extent: every
// bound on its path becomes NoExtent.
func (t *Tree) Insert(key float64, tid uint32) error { return t.InsertExt(key, tid, NoExtent) }

// InsertExt is Insert of an entry whose x-extent is x: it widens the bound of
// every child on the entry's path, and the root's, to hold x.
func (t *Tree) InsertExt(key float64, tid uint32, x [2]float64) error {
	e := Entry{Key: RoundKey(key), TID: tid}
	t.rootExt = roundOut(Union(t.rootExt, x))
	self, sep, right, err := t.insertInto(t.root, t.hgt, e, x)
	if self != pagestore.InvalidPage && self != t.root {
		// Adopt the shadowed root even on error, so a partially cloned
		// path stays linked until the batch commits or aborts.
		t.root = self
	}
	if err != nil {
		return err
	}
	if right != pagestore.InvalidPage {
		// Root split: grow the tree; both halves get the root's bound.
		nr, err := t.newInternal()
		if err != nil {
			return err
		}
		nr.setChild(0, t.root)
		nr.setChildExt(0, t.rootExt)
		nr.insertSepAt(0, sep, right, t.rootExt)
		t.root = nr.id()
		t.hgt++
		nr.release()
	}
	t.size++
	return nil
}

// insertInto inserts e, of x-extent x, under the subtree rooted at id (at the
// given height). It returns the subtree's possibly changed root page — under
// a copy-on-write batch the whole descent path is shadowed, so ids move — and
// reports a split as (separator, newRightPage). Every bound on the path is
// widened to hold x (the root's by the caller); a split gives both halves the
// bound of the node that split.
func (t *Tree) insertInto(id pagestore.PageID, height int, e Entry, x [2]float64) (self pagestore.PageID, sep Entry, right pagestore.PageID, err error) {
	n, err := t.getAt(id, height)
	if err != nil {
		return id, Entry{}, pagestore.InvalidPage, err
	}
	if n, err = t.writable(n); err != nil {
		return id, Entry{}, pagestore.InvalidPage, err
	}
	self = n.id()
	defer n.release()

	if height == 1 {
		i := n.searchLeaf(e)
		if i < n.count() && n.entry(i) == e {
			return self, Entry{}, pagestore.InvalidPage, fmt.Errorf("%w: (%g, %d)", ErrDuplicate, e.Key, e.TID)
		}
		if n.count() < t.leafCap {
			n.insertEntryAt(i, e)
			return self, Entry{}, pagestore.InvalidPage, nil
		}
		// Split the leaf: right half moves to a new page. Handicap slots
		// are copied to both halves — conservative and always sound
		// (see DESIGN.md §4.4 "Handicap maintenance").
		r, err := t.newLeaf()
		if err != nil {
			return self, Entry{}, pagestore.InvalidPage, err
		}
		defer r.release()
		mid := n.count() / 2
		for j := mid; j < n.count(); j++ {
			r.setEntry(j-mid, n.entry(j))
		}
		r.setCount(n.count() - mid)
		n.setCount(mid)
		for s := 0; s < n.numHandicaps(); s++ {
			r.setHandicap(s, n.handicap(s))
		}
		sp := r.entry(0)
		if e.Less(sp) {
			n.insertEntryAt(n.searchLeaf(e), e)
		} else {
			r.insertEntryAt(r.searchLeaf(e), e)
		}
		return self, sp, r.id(), nil
	}

	ci := n.childIndex(e)
	n.widenChild(ci, x)
	oldChild := n.child(ci)
	newChild, sp, grand, err := t.insertInto(oldChild, height-1, e, x)
	if newChild != pagestore.InvalidPage && newChild != oldChild {
		n.setChild(ci, newChild)
	}
	if err != nil || grand == pagestore.InvalidPage {
		return self, Entry{}, pagestore.InvalidPage, err
	}
	gx := n.childExt(ci)
	if n.count() < t.intCap {
		n.insertSepAt(ci, sp, grand, gx)
		return self, Entry{}, pagestore.InvalidPage, nil
	}
	// Split the internal node around its median separator.
	r, err := t.newInternal()
	if err != nil {
		return self, Entry{}, pagestore.InvalidPage, err
	}
	defer r.release()
	c := n.count()
	mid := c / 2
	up := n.sep(mid)
	r.setChild(0, n.child(mid+1))
	r.setChildExt(0, n.childExt(mid+1))
	for j := mid + 1; j < c; j++ {
		r.insertSepAt(j-mid-1, n.sep(j), n.child(j+1), n.childExt(j+1))
	}
	n.setCount(mid)
	// Route the pending separator into the correct half.
	if sp.Less(up) {
		n.insertSepAt(n.childIndex(sp), sp, grand, gx)
	} else {
		r.insertSepAt(r.childIndex(sp), sp, grand, gx)
	}
	return self, up, r.id(), nil
}

// Delete removes (RoundKey(key), tid), reporting whether it was present.
// Under an open copy-on-write batch the mutated path is shadowed (see
// Insert).
func (t *Tree) Delete(key float64, tid uint32) (bool, error) {
	e := Entry{Key: RoundKey(key), TID: tid}
	self, found, _, err := t.deleteFrom(t.root, t.hgt, e)
	if self != pagestore.InvalidPage && self != t.root {
		t.root = self
	}
	// Free pages emptied by merges now that every frame is released. Under
	// a batch only batch-owned pages land here (shared ones are superseded
	// and retired with the commit instead).
	for _, id := range t.pendingFree {
		if t.cow != nil {
			delete(t.cow.owned, id)
		}
		if ferr := t.pool.FreePage(id); ferr != nil && err == nil {
			err = ferr
		}
		t.pages--
	}
	t.pendingFree = t.pendingFree[:0]
	if err != nil {
		return false, err
	}
	if !found {
		return false, nil
	}
	t.size--
	// Collapse the root if it became a pass-through internal node.
	for t.hgt > 1 {
		r, err := t.get(t.root)
		if err != nil {
			return true, err
		}
		if r.isLeaf() || r.count() > 0 {
			r.release()
			break
		}
		child := r.child(0)
		old := r.id()
		r.release()
		if err := t.freeOrSupersede(old); err != nil {
			return true, err
		}
		t.pages--
		t.root = child
		t.hgt--
	}
	return true, nil
}

// Minimum occupancy. A split of a full leaf (leafCap entries plus the
// pending one) leaves at least ⌊leafCap/2⌋ entries on each side; a split
// of a full internal node (intCap separators, one of which moves up)
// leaves at least ⌊(intCap−1)/2⌋ separators on each side.
func (t *Tree) minLeaf() int { return t.leafCap / 2 }
func (t *Tree) minInt() int  { return (t.intCap - 1) / 2 }

// deleteFrom removes e under the subtree at id, returning the subtree's
// possibly changed root page (ids move when a batch shadows the path);
// underflow tells the parent the node fell below minimum occupancy. When
// the entry is absent nothing is cloned.
func (t *Tree) deleteFrom(id pagestore.PageID, height int, e Entry) (self pagestore.PageID, found, underflow bool, err error) {
	n, err := t.getAt(id, height)
	if err != nil {
		return id, false, false, err
	}

	if height == 1 {
		i := n.searchLeaf(e)
		if i >= n.count() || n.entry(i) != e {
			n.release()
			return id, false, false, nil
		}
		if n, err = t.writable(n); err != nil {
			return id, false, false, err
		}
		defer n.release()
		n.removeEntryAt(i)
		return n.id(), true, n.count() < t.minLeaf(), nil
	}

	ci := n.childIndex(e)
	oldChild := n.child(ci)
	newChild, found, under, err := t.deleteFrom(oldChild, height-1, e)
	if newChild == oldChild && (err != nil || !found) {
		// Nothing changed below: leave this node untouched too.
		n.release()
		return id, found, false, err
	}
	var werr error
	if n, werr = t.writable(n); werr != nil {
		return id, found, false, werr
	}
	self = n.id()
	defer n.release()
	if newChild != oldChild {
		n.setChild(ci, newChild)
	}
	if err != nil || !found || !under {
		return self, found, false, err
	}
	if err := t.rebalanceChild(n, ci, height-1); err != nil {
		return self, true, false, err
	}
	return self, true, n.count() < t.minInt(), nil
}

// rebalanceChild restores minimum occupancy of n's ci-th child by borrowing
// from a sibling or merging with one. n is writable; the underflowing child
// is too (deleteFrom shadowed it when it removed the entry). Siblings are
// made writable before they are mutated, with n's child link patched to
// any clone. A child that takes a subtree from a sibling widens its bound by
// that subtree's, one that takes a leaf entry — whose extent no page keeps —
// by the sibling's; a sibling that gives keeps its bound.
func (t *Tree) rebalanceChild(n node, ci, childHeight int) error {
	child, err := t.getAt(n.child(ci), childHeight)
	if err != nil {
		return err
	}
	defer child.release()

	// Try borrowing from the left sibling, then the right.
	if ci > 0 {
		left, err := t.getAt(n.child(ci-1), childHeight)
		if err != nil {
			return err
		}
		canBorrow := (childHeight == 1 && left.count() > t.minLeaf()) ||
			(childHeight > 1 && left.count() > t.minInt())
		if canBorrow {
			if left, err = t.writable(left); err != nil {
				return err
			}
			if n.child(ci-1) != left.id() {
				n.setChild(ci-1, left.id())
			}
			if childHeight == 1 {
				e := left.entry(left.count() - 1)
				left.setCount(left.count() - 1)
				child.insertEntryAt(0, e)
				n.setSep(ci-1, e)
				n.widenChild(ci, n.childExt(ci-1))
			} else {
				// Rotate through the parent separator: the left sibling's
				// last child moves over, guarded by the old parent
				// separator; the sibling's last separator moves up.
				e := left.sep(left.count() - 1)
				lc, lcx := left.child(left.count()), left.childExt(left.count())
				left.setCount(left.count() - 1)
				t.prependToInternal(child, n.sep(ci-1), lc, lcx)
				n.setSep(ci-1, e)
				n.widenChild(ci, lcx)
			}
			left.release()
			return nil
		}
		left.release()
	}
	if ci < n.count() {
		right, err := t.getAt(n.child(ci+1), childHeight)
		if err != nil {
			return err
		}
		canBorrow := (childHeight == 1 && right.count() > t.minLeaf()) ||
			(childHeight > 1 && right.count() > t.minInt())
		if canBorrow {
			if right, err = t.writable(right); err != nil {
				return err
			}
			if n.child(ci+1) != right.id() {
				n.setChild(ci+1, right.id())
			}
			if childHeight == 1 {
				e := right.entry(0)
				right.removeEntryAt(0)
				child.insertEntryAt(child.count(), e)
				n.setSep(ci, right.entry(0))
				n.widenChild(ci, n.childExt(ci+1))
			} else {
				oldSep := n.sep(ci)
				rc, rcx := right.child(0), right.childExt(0)
				up := right.sep(0)
				right.setChild(0, right.child(1))
				right.setChildExt(0, right.childExt(1))
				right.removeSepAt(0)
				child.insertSepAt(child.count(), oldSep, rc, rcx)
				n.setSep(ci, up)
				n.widenChild(ci, rcx)
			}
			right.release()
			return nil
		}
		right.release()
	}

	// Merge with a sibling. Prefer merging child into its left sibling.
	// The surviving (left) node is mutated and must be writable; the dying
	// (right) node is only read, then superseded or freed by mergeNodes.
	if ci > 0 {
		left, err := t.getAt(n.child(ci-1), childHeight)
		if err != nil {
			return err
		}
		if left, err = t.writable(left); err != nil {
			return err
		}
		if n.child(ci-1) != left.id() {
			n.setChild(ci-1, left.id())
		}
		t.mergeNodes(n, ci-1, left, child, childHeight)
		left.release()
		return nil
	}
	right, err := t.getAt(n.child(ci+1), childHeight)
	if err != nil {
		return err
	}
	t.mergeNodes(n, ci, child, right, childHeight)
	right.release()
	return nil
}

// prependToInternal rebuilds an internal node with (sep, leftmostChild of
// bound x0) prepended. Counts are small (≤ intCap), so copying is fine.
func (t *Tree) prependToInternal(n node, sep Entry, newChild0 pagestore.PageID, x0 [2]float64) {
	c := n.count()
	seps := make([]Entry, c)
	children := make([]pagestore.PageID, c+1)
	exts := make([][2]float64, c+1)
	for i := 0; i < c; i++ {
		seps[i] = n.sep(i)
	}
	for i := 0; i <= c; i++ {
		children[i], exts[i] = n.child(i), n.childExt(i)
	}
	n.setCount(0)
	n.setChild(0, newChild0)
	n.setChildExt(0, x0)
	n.insertSepAt(0, sep, children[0], exts[0])
	for i := 0; i < c; i++ {
		n.insertSepAt(i+1, seps[i], children[i+1], exts[i+1])
	}
}

// mergeNodes folds right into left (children ci and ci+1 of n) and removes
// the separating key from n. For leaves the handicap slots combine in the
// conservative direction of their kind; left's bound becomes the union of
// both.
func (t *Tree) mergeNodes(n node, sepIdx int, left, right node, childHeight int) {
	n.widenChild(sepIdx, n.childExt(sepIdx+1))
	if childHeight == 1 {
		base := left.count()
		for j := 0; j < right.count(); j++ {
			left.setEntry(base+j, right.entry(j))
		}
		left.setCount(base + right.count())
		for s := 0; s < left.numHandicaps(); s++ {
			left.setHandicap(s, t.cfg.HandicapKinds[s].Combine(left.handicap(s), right.handicap(s)))
		}
	} else {
		down := n.sep(sepIdx)
		base := left.count()
		left.insertSepAt(base, down, right.child(0), right.childExt(0))
		for j := 0; j < right.count(); j++ {
			left.insertSepAt(base+1+j, right.sep(j), right.child(j+1), right.childExt(j+1))
		}
	}
	rid := right.id()
	n.removeSepAt(sepIdx)
	if t.cow != nil && !t.cow.owned[rid] {
		// A published version may still sweep onto right: retire it with
		// the commit instead of freeing it now.
		t.cow.superseded = append(t.cow.superseded, rid)
		t.pages--
		return
	}
	// right is released by the caller; freeing a pinned page is an error,
	// so defer the free until after release by remembering it.
	t.pendingFree = append(t.pendingFree, rid)
}

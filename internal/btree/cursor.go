package btree

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"dualcdb/internal/pagestore"
)

// leafView builds the zero-copy view of a pinned leaf for a sweep. The
// returned LeafView borrows leaf's frame: the caller must not release the
// frame until it is done with the view (sweeps call visit first, release
// after).
func (t *Tree) leafView(leaf node) LeafView {
	t.stats.leavesVisited.Add(1)
	return LeafView{Page: leaf.id(), v: leaf.view()}
}

// maxDepth bounds the internal levels above a leaf. Every internal node has
// at least two children, so a tree of height h occupies at least 2^h − 1
// pages, and page ids are 32 bits: no tree is deeper.
const maxDepth = 32

// cursor is a root-to-leaf path through one version of the tree: the pinned
// internal nodes from the root down, each with the index of the child the
// path continues into. A version's pages are never rewritten while a reader
// can reach them (cow.go), so the path stays valid for as long as it is
// pinned, and a sweep steps from leaf to leaf through it without sibling
// links. It holds depth ≤ height − 1 pins next to the sweep's one leaf; the
// fixed array keeps it off the heap.
type cursor struct {
	t    *Tree
	rc   *pagestore.ReadCounter
	path [maxDepth]struct {
		n   node
		idx int
	}
	depth int
}

// push extends the path by internal node n, continued into child idx, and
// pins that child. On error n is released with the rest of the path.
func (c *cursor) push(n node, idx int, child pagestore.PageID) (node, error) {
	if c.depth == maxDepth {
		id := n.id()
		n.release()
		return node{}, fmt.Errorf("btree: page %d lies deeper than any tree: corrupt child links", id)
	}
	c.path[c.depth].n, c.path[c.depth].idx = n, idx
	c.depth++
	return c.t.getTracked(child, c.rc)
}

// seek descends from the root to the leaf that owns e and returns it pinned.
func (c *cursor) seek(e Entry) (node, error) {
	c.t.stats.descents.Add(1)
	n, err := c.t.getTracked(c.t.root, c.rc)
	for err == nil && !n.isLeaf() {
		idx := n.childIndex(e)
		n, err = c.push(n, idx, n.child(idx))
	}
	return n, err
}

// step returns, pinned, the leaf after (asc) or before the one the path
// leads to: it climbs to the deepest node with a further child on that
// side, releasing the exhausted ones, and descends that child's near edge.
// ok is false past the last leaf.
func (c *cursor) step(asc bool) (leaf node, ok bool, err error) {
	for ; c.depth > 0; c.depth-- {
		top := &c.path[c.depth-1]
		if asc && top.idx < top.n.count() {
			top.idx++
		} else if !asc && top.idx > 0 {
			top.idx--
		} else {
			top.n.release()
			continue
		}
		leaf, err = c.t.getTracked(top.n.child(top.idx), c.rc)
		for err == nil && !leaf.isLeaf() {
			idx := 0
			if !asc {
				idx = leaf.count()
			}
			leaf, err = c.push(leaf, idx, leaf.child(idx))
		}
		return leaf, err == nil, err
	}
	return node{}, false, nil
}

// close releases the path.
func (c *cursor) close() {
	for ; c.depth > 0; c.depth-- {
		c.path[c.depth-1].n.release()
	}
}

// shadow makes the path and the leaf it leads to writable under the open
// batch, top-down: a node the batch does not own is cloned and the clone
// linked into its parent — owned by then — or, for the first, into t.root, so
// a partly shadowed path stays linked. On error leaf is released too.
func (c *cursor) shadow(leaf node) (node, error) {
	for d := 0; d <= c.depth; d++ {
		n := &leaf
		if d < c.depth {
			n = &c.path[d].n
		}
		w, err := c.t.writable(*n)
		if err != nil {
			// writable released *n: release what lies below it and cut the
			// path above it, which close releases.
			if d < c.depth {
				leaf.release()
			}
			for i := d + 1; i < c.depth; i++ {
				c.path[i].n.release()
			}
			c.depth = d
			return node{}, err
		}
		*n = w
		if d == 0 {
			c.t.root = w.id()
		} else if up := c.path[d-1]; up.n.child(up.idx) != w.id() {
			up.n.setChild(up.idx, w.id())
		}
	}
	return leaf, nil
}

// sweep is the one leaf sweep behind VisitLeaves{Asc,Desc}[Tracked]: from
// the leaf that owns `from`, leaf by leaf in one direction, while visit
// returns true.
func (t *Tree) sweep(from Entry, asc bool, rc *pagestore.ReadCounter, visit func(LeafView) bool) error {
	c := cursor{t: t, rc: rc}
	defer c.close()
	leaf, err := c.seek(from)
	for ok := true; err == nil && ok; leaf, ok, err = c.step(asc) {
		more := visit(t.leafView(leaf))
		leaf.release()
		if !more {
			break
		}
	}
	return err
}

// VisitLeavesAsc visits leaves in ascending key order starting at the leaf
// that owns key RoundKey(from) (with the smallest TID), continuing while visit
// returns true. This is the paper's upward leaf sweep; each visited leaf
// costs one page access. The LeafView passed to visit is valid only for
// the duration of the call — its frame is released when visit returns.
func (t *Tree) VisitLeavesAsc(from float64, visit func(LeafView) bool) error {
	return t.VisitLeavesAscTracked(from, nil, visit)
}

// VisitLeavesAscTracked is VisitLeavesAsc with every page read of the sweep
// charged to rc — the per-query accounting that stays exact when several
// sweeps share the buffer pool: the descent path, every leaf visited, and
// each further internal node the sweep crosses into, once each.
func (t *Tree) VisitLeavesAscTracked(from float64, rc *pagestore.ReadCounter, visit func(LeafView) bool) error {
	return t.sweep(Entry{Key: RoundKey(from), TID: 0}, true, rc, visit)
}

// VisitLeavesDesc visits leaves in descending key order starting at the
// leaf that owns key RoundKey(from) (with the largest TID) — the downward
// sweep.
// The LeafView lifetime rule of VisitLeavesAsc applies.
func (t *Tree) VisitLeavesDesc(from float64, visit func(LeafView) bool) error {
	return t.VisitLeavesDescTracked(from, nil, visit)
}

// VisitLeavesDescTracked is VisitLeavesDesc with per-query I/O accounting
// (see VisitLeavesAscTracked).
func (t *Tree) VisitLeavesDescTracked(from float64, rc *pagestore.ReadCounter, visit func(LeafView) bool) error {
	return t.sweep(Entry{Key: RoundKey(from), TID: math.MaxUint32}, false, rc, visit)
}

// AscendRange calls fn for every entry whose stored key lies in
// [RoundKey(from), RoundKey(to)], in ascending order; fn returning false
// stops the scan.
func (t *Tree) AscendRange(from, to float64, fn func(Entry) bool) error {
	from, to = RoundKey(from), RoundKey(to)
	return t.VisitLeavesAsc(from, func(lv LeafView) bool {
		for i, n := 0, lv.Len(); i < n; i++ {
			if lv.Key(i) < from {
				continue
			}
			if lv.Key(i) > to {
				return false
			}
			if !fn(lv.Entry(i)) {
				return false
			}
		}
		return true
	})
}

// ScanAll returns every entry in key order (tests and rebuilds).
func (t *Tree) ScanAll() ([]Entry, error) {
	var out []Entry
	err := t.VisitLeavesAsc(math.Inf(-1), func(lv LeafView) bool {
		out = lv.AppendEntries(out)
		return true
	})
	return out, err
}

// MergeHandicap folds value into handicap slot `slot` of the leaf that owns
// RoundKey(routeKey) — the leaf whose key interval the paper associates the
// value with. The slot's kind decides the merge (min for low_j, max for
// high_j); the value itself is stored as the float64 it is.
func (t *Tree) MergeHandicap(routeKey float64, slot int, value float64) error {
	var vals [maxHandicaps]float64
	for s, k := range t.cfg.HandicapKinds {
		vals[s] = k.Identity()
	}
	vals[slot] = value
	return t.mergeSlots(Entry{Key: RoundKey(routeKey), TID: 0}, vals[:len(t.cfg.HandicapKinds)])
}

// mergeSlots combines vals[s] into handicap slot s of the leaf that owns e,
// for every slot. It reads the leaf first and writes only when some slot's
// bits would move: almost every merge leaves a slot — the extremum of
// everything routed to the leaf — where it was, and under a batch such a
// merge clones nothing; one that moves a slot shadows the path the read
// descent still holds. The bits written are those the unconditional write
// would have left, so page contents do not depend on the check (DESIGN.md
// §20).
func (t *Tree) mergeSlots(e Entry, vals []float64) error {
	c := cursor{t: t}
	defer c.close()
	leaf, err := c.seek(e)
	if err != nil {
		return err
	}
	var merged [maxHandicaps]float64
	moves := false
	for s, k := range t.cfg.HandicapKinds {
		old := leaf.handicap(s)
		merged[s] = k.Combine(old, vals[s])
		moves = moves || math.Float64bits(merged[s]) != math.Float64bits(old)
	}
	if !moves {
		leaf.release()
		return nil
	}
	if t.cow != nil {
		// The write must land on a batch-owned copy of the leaf.
		if leaf, err = c.shadow(leaf); err != nil {
			return err
		}
	}
	for s := range t.cfg.HandicapKinds {
		leaf.setHandicap(s, merged[s])
	}
	leaf.release()
	return nil
}

// HandicapMerge is one MergeHandicap call held back for FoldHandicaps.
type HandicapMerge struct {
	RouteKey float64
	Slot     int
	Value    float64
}

// FoldHandicaps leaves every slot with the bits that calling MergeHandicap
// for each element of ms, in any order, would — min and max are associative,
// commutative and idempotent over these values — without a descent per
// element. It bins each route key over the tree's separators in key order by
// the descent's own rule (a leaf owns the entries not less than the separator
// before it and less than the one after), combines the values per leaf and
// slot, and writes each leaf that received any once, through mergeSlots.
func (t *Tree) FoldHandicaps(ms []HandicapMerge) error {
	seps, err := t.appendSeparators(nil, t.root, t.hgt)
	if err != nil {
		return err
	}
	kinds := t.cfg.HandicapKinds
	acc := make([]float64, (len(seps)+1)*len(kinds))
	for i := range acc {
		acc[i] = kinds[i%len(kinds)].Identity()
	}
	routed := make([]bool, len(seps)+1)
	for _, m := range ms {
		e := Entry{Key: RoundKey(m.RouteKey), TID: 0}
		leaf := sort.Search(len(seps), func(i int) bool { return e.Less(seps[i]) })
		at := leaf*len(kinds) + m.Slot
		acc[at] = kinds[m.Slot].Combine(acc[at], m.Value)
		routed[leaf] = true
	}
	for leaf, hit := range routed {
		if !hit {
			continue
		}
		owner := Entry{Key: math.Inf(-1), TID: 0}
		if leaf > 0 {
			owner = seps[leaf-1] // a descent sends a separator to the leaf on its right
		}
		if err := t.mergeSlots(owner, acc[leaf*len(kinds):(leaf+1)*len(kinds)]); err != nil {
			return err
		}
	}
	return nil
}

// appendSeparators appends the separators of the subtree at id, height levels
// tall, in key order: one between every two neighbouring leaves. Leaves are
// not read.
func (t *Tree) appendSeparators(seps []Entry, id pagestore.PageID, height int) ([]Entry, error) {
	if height <= 1 {
		return seps, nil
	}
	n, err := t.getAt(id, height)
	if err != nil {
		return nil, err
	}
	defer n.release()
	for i := 0; i <= n.count(); i++ {
		if i > 0 {
			seps = append(seps, n.sep(i-1))
		}
		if seps, err = t.appendSeparators(seps, n.child(i), height-1); err != nil {
			return nil, err
		}
	}
	return seps, nil
}

// ResetHandicaps restores every leaf's handicap slots to their identity
// values, ahead of an exact rebuild. The walk is top-down with every node
// made writable on the way: under an open copy-on-write batch that shadows
// the whole tree, each clone linked into its parent as the walk unwinds;
// outside a batch writable is the identity and the leaves are reset in place.
func (t *Tree) ResetHandicaps() error {
	var walk func(id pagestore.PageID, height int) (pagestore.PageID, error)
	walk = func(id pagestore.PageID, height int) (pagestore.PageID, error) {
		n, err := t.getAt(id, height)
		if err != nil {
			return id, err
		}
		if n, err = t.writable(n); err != nil {
			return id, err
		}
		self := n.id()
		defer n.release()
		if n.isLeaf() {
			for s, k := range t.cfg.HandicapKinds {
				n.setHandicap(s, k.Identity())
			}
			return self, nil
		}
		for i := 0; i <= n.count(); i++ {
			nc, err := walk(n.child(i), height-1)
			if nc != n.child(i) {
				n.setChild(i, nc)
			}
			if err != nil {
				return self, err
			}
		}
		return self, nil
	}
	root, err := walk(t.root, t.hgt)
	t.root = root
	return err
}

// BulkLoad builds the tree from entries in any order: it rounds their keys in
// place (RoundKey) and sorts them in composite order of the stored keys. The
// tree must be empty. Leaves are packed to the configured fill factor, which
// is how the experiment trees are built.
func (t *Tree) BulkLoad(entries []Entry) error {
	if t.size != 0 {
		return ErrNotEmpty
	}
	if t.cow != nil {
		return fmt.Errorf("btree: BulkLoad inside a copy-on-write batch")
	}
	if len(entries) == 0 {
		return nil
	}
	for i := range entries {
		entries[i].Key = RoundKey(entries[i].Key)
	}
	slices.SortFunc(entries, Entry.Compare)
	perLeaf := int(float64(t.leafCap) * t.cfg.FillFactor)
	if perLeaf < 1 {
		perLeaf = 1
	}
	// Reuse the existing empty root leaf as the first leaf.
	first, err := t.get(t.root)
	if err != nil {
		return err
	}
	type levelEntry struct {
		sep  Entry // smallest entry in the subtree (first leaf entry)
		page pagestore.PageID
	}
	var leaves []levelEntry
	cur := first
	for i := 0; i < len(entries); {
		n := perLeaf
		if rem := len(entries) - i; rem < n {
			n = rem
		}
		// Avoid a dangling underfull final leaf: balance the last two, or
		// keep the remainder in one leaf when it cannot fill two.
		if rem := len(entries) - i; rem > n && rem-n < t.minLeaf() {
			if n = rem - t.minLeaf(); n < t.minLeaf() {
				n = rem // < 2·minLeaf ≤ leafCap
			}
		}
		for j := 0; j < n; j++ {
			cur.setEntry(j, entries[i+j])
		}
		cur.setCount(n)
		leaves = append(leaves, levelEntry{sep: entries[i], page: cur.id()})
		i += n
		if i < len(entries) {
			next, err := t.newLeaf()
			if err != nil {
				cur.release()
				return err
			}
			cur.release()
			cur = next
		}
	}
	cur.release()
	t.size = len(entries)

	// Build internal levels bottom-up.
	level := leaves
	t.hgt = 1
	perInt := t.intCap // children per internal node ≤ intCap+1; use intCap separators
	for len(level) > 1 {
		var up []levelEntry
		for i := 0; i < len(level); {
			n := perInt + 1 // children in this node
			if rem := len(level) - i; rem < n {
				n = rem
			}
			if rem := len(level) - i; rem > n && rem-n < t.minInt()+1 {
				n = rem - (t.minInt() + 1)
			}
			if n < 1 {
				n = 1
			}
			in, err := t.newInternal()
			if err != nil {
				return err
			}
			in.setChild(0, level[i].page)
			for j := 1; j < n; j++ {
				in.insertSepAt(j-1, level[i+j].sep, level[i+j].page)
			}
			up = append(up, levelEntry{sep: level[i].sep, page: in.id()})
			in.release()
			i += n
		}
		level = up
		t.hgt++
	}
	t.root = level[0].page
	return nil
}

// CheckInvariants walks the whole tree verifying ordering, occupancy,
// and separator consistency; it returns a descriptive error on the first
// violation. Test-support API.
func (t *Tree) CheckInvariants() error {
	var lastEntry *Entry
	count := 0
	var walk func(id pagestore.PageID, height int, lo, hi *Entry) error
	walk = func(id pagestore.PageID, height int, lo, hi *Entry) error {
		n, err := t.get(id)
		if err != nil {
			return err
		}
		defer n.release()
		if height == 1 {
			if !n.isLeaf() {
				return errf("page %d: expected leaf at height 1", id)
			}
			if id != t.root && n.count() < t.minLeaf() {
				return errf("leaf %d underfull: %d < %d", id, n.count(), t.minLeaf())
			}
			for i := 0; i < n.count(); i++ {
				e := n.entry(i)
				if lastEntry != nil && e.Less(*lastEntry) {
					return errf("leaf %d: entry %v out of order after %v", id, e, *lastEntry)
				}
				if lo != nil && e.Less(*lo) {
					return errf("leaf %d: entry %v below separator %v", id, e, *lo)
				}
				if hi != nil && !e.Less(*hi) {
					return errf("leaf %d: entry %v not below separator %v", id, e, *hi)
				}
				ec := e
				lastEntry = &ec
				count++
			}
			return nil
		}
		if n.isLeaf() {
			return errf("page %d: unexpected leaf at height %d", id, height)
		}
		if id != t.root && n.count() < t.minInt() {
			return errf("internal %d underfull: %d < %d", id, n.count(), t.minInt())
		}
		if id == t.root && n.count() < 1 {
			return errf("internal root %d has no separators", id)
		}
		for i := 0; i <= n.count(); i++ {
			var clo, chi *Entry
			if i > 0 {
				s := n.sep(i - 1)
				clo = &s
			} else {
				clo = lo
			}
			if i < n.count() {
				s := n.sep(i)
				chi = &s
			} else {
				chi = hi
			}
			if err := walk(n.child(i), height-1, clo, chi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, t.hgt, nil, nil); err != nil {
		return err
	}
	if count != t.size {
		return errf("size mismatch: counted %d, recorded %d", count, t.size)
	}
	return nil
}

func errf(format string, args ...interface{}) error {
	return fmt.Errorf("btree: invariant violation: "+format, args...)
}

package btree

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"dualcdb/internal/pagestore"
)

// leafView builds the zero-copy view of a pinned leaf for a sweep, with its
// bound x. The returned LeafView borrows leaf's frame: the caller must not
// release the frame until it is done with the view (sweeps call visit first,
// release after).
func (t *Tree) leafView(leaf node, x [2]float64) LeafView {
	t.stats.leavesVisited.Add(1)
	return LeafView{Page: leaf.id(), v: leaf.view(), ext: x}
}

// maxDepth bounds the internal levels above a leaf. Every internal node has
// at least two children, so a tree of height h occupies at least 2^h − 1
// pages, and page ids are 32 bits: no tree is deeper.
const maxDepth = 32

// Bound is what a sweep knows of a subtree before it reads it: every entry
// the subtree holds has a stored key in [Lo, Hi] — the separators around it,
// ±Inf at the tree's ends — and an x-extent inside X, its parent's record.
type Bound struct {
	Lo, Hi float64
	X      [2]float64
}

// Step is a skip test's verdict on a subtree.
type Step uint8

const (
	// Enter reads the subtree.
	Enter Step = iota
	// Pass goes on past the subtree without reading it.
	Pass
	// Stop ends the sweep before the subtree.
	Stop
)

// cursor is a root-to-leaf path through one version of the tree: the pinned
// internal nodes from the root down, each with the index of the child the
// path continues into and, under a skip test, the key range the node's own
// subtree covers. A version's pages are never rewritten while a reader can
// reach them (cow.go), so the path stays valid for as long as it is pinned,
// and a sweep steps from leaf to leaf through it without sibling links. It
// holds depth ≤ height − 1 pins next to the sweep's one leaf; the fixed array
// keeps it off the heap.
type cursor struct {
	t    *Tree
	rc   *pagestore.ReadCounter
	path [maxDepth]struct {
		n      node
		idx    int
		lo, hi float64
	}
	depth int
	// bounded: a skip test judges each child before the cursor pins it, so
	// the path keeps the nodes' key ranges. The test itself is an argument of
	// seek and step — stored here, it would escape to the heap.
	bounded bool
}

// push extends the path by internal node n, continued into child idx. On
// error n is released with the rest of the path.
func (c *cursor) push(n node, idx int) error {
	if c.depth == maxDepth {
		id := n.id()
		n.release()
		return fmt.Errorf("btree: page %d lies deeper than any tree: corrupt child links", id)
	}
	p := &c.path[c.depth]
	p.n, p.idx = n, idx
	if c.bounded {
		p.lo, p.hi = math.Inf(-1), math.Inf(1)
		if c.depth > 0 {
			b := c.bound()
			p.lo, p.hi = b.Lo, b.Hi
		}
	}
	c.depth++
	return nil
}

// bound is the Bound of the child the path leads to.
func (c *cursor) bound() Bound {
	top := &c.path[c.depth-1]
	b := Bound{Lo: top.lo, Hi: top.hi, X: top.n.childExt(top.idx)}
	if top.idx > 0 {
		b.Lo = top.n.sep(top.idx - 1).Key
	}
	if top.idx < top.n.count() {
		b.Hi = top.n.sep(top.idx).Key
	}
	return b
}

// leafExt is the bound of the leaf the path leads to.
func (c *cursor) leafExt() [2]float64 {
	if c.depth == 0 {
		return NoExtent
	}
	top := &c.path[c.depth-1]
	return top.n.childExt(top.idx)
}

// seek descends from the root to the leaf that owns e and returns it pinned.
// Under a skip test (skip non-nil, c.bounded) a child it passes sends it on
// to the next leaf in the sweep's direction (asc: ascending); ok is false
// when no leaf is left.
func (c *cursor) seek(e Entry, asc bool, skip func(Bound) Step) (leaf node, ok bool, err error) {
	c.t.stats.descents.Add(1)
	n, err := c.t.getTracked(c.t.root, c.rc)
	if err != nil || n.isLeaf() {
		return n, err == nil, err
	}
	if err := c.push(n, n.childIndex(e)); err != nil {
		return node{}, false, err
	}
	return c.land(asc, &e, skip)
}

// land pins the child the path leads to and descends from it — towards e,
// or along the near edge in the sweep's direction when e is nil — to a leaf,
// which it returns pinned. A child the skip test passes moves the path on
// (advance); one it stops at ends the sweep (ok false).
func (c *cursor) land(asc bool, e *Entry, skip func(Bound) Step) (leaf node, ok bool, err error) {
	for c.depth > 0 {
		if skip != nil {
			switch skip(c.bound()) {
			case Pass:
				if !c.advance(asc) {
					return node{}, false, nil
				}
				e = nil
				continue
			case Stop:
				return node{}, false, nil
			}
		}
		top := &c.path[c.depth-1]
		n, err := c.t.getTracked(top.n.child(top.idx), c.rc)
		if err != nil || n.isLeaf() {
			return n, err == nil, err
		}
		idx := 0
		switch {
		case e != nil:
			idx = n.childIndex(*e)
		case !asc:
			idx = n.count()
		}
		if err := c.push(n, idx); err != nil {
			return node{}, false, err
		}
	}
	return node{}, false, nil
}

// advance moves the path to the next child in the sweep's direction of its
// deepest node that has one, releasing the exhausted nodes below; false past
// the last child of the root.
func (c *cursor) advance(asc bool) bool {
	for ; c.depth > 0; c.depth-- {
		top := &c.path[c.depth-1]
		if asc && top.idx < top.n.count() {
			top.idx++
			return true
		} else if !asc && top.idx > 0 {
			top.idx--
			return true
		}
		top.n.release()
	}
	return false
}

// step returns, pinned, the leaf after (asc) or before the one the path
// leads to: it climbs to the deepest node with a further child on that
// side, releasing the exhausted ones, and descends that child's near edge.
// ok is false past the last leaf.
func (c *cursor) step(asc bool, skip func(Bound) Step) (leaf node, ok bool, err error) {
	if !c.advance(asc) {
		return node{}, false, nil
	}
	return c.land(asc, nil, skip)
}

// find descends to the leaf that owns e and returns it pinned; without a
// skip test there always is one.
func (c *cursor) find(e Entry) (node, error) {
	leaf, _, err := c.seek(e, true, nil)
	return leaf, err
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

// Sweep is the one leaf sweep: from the leaf that owns RoundKey(from) — with
// the smallest TID ascending, the largest descending — leaf by leaf in one
// direction while visit returns true, with page reads charged to rc (nil:
// none). Before it pins a child — a leaf or a whole subtree — it asks skip
// about the child's Bound, and passes it unread or ends the sweep there when
// skip says so. A skip test must pass only subtrees none of whose entries the
// caller wants; nil passes none.
func (t *Tree) Sweep(from float64, asc bool, rc *pagestore.ReadCounter, skip func(Bound) Step, visit func(LeafView) bool) error {
	e := Entry{Key: RoundKey(from), TID: 0}
	if !asc {
		e.TID = math.MaxUint32
	}
	c := cursor{t: t, rc: rc, bounded: skip != nil}
	defer c.close()
	leaf, ok, err := c.seek(e, asc, skip)
	for ; err == nil && ok; leaf, ok, err = c.step(asc, skip) {
		more := visit(t.leafView(leaf, c.leafExt()))
		leaf.release()
		if !more {
			break
		}
	}
	return err
}

// VisitLeavesAsc visits leaves in ascending key order starting at the leaf
// that owns key RoundKey(from) (with the smallest TID), continuing while visit
// returns true: Sweep upward with no read counter and no skip test. The
// LeafView passed to visit is valid only for the duration of the call — its
// frame is released when visit returns.
func (t *Tree) VisitLeavesAsc(from float64, visit func(LeafView) bool) error {
	return t.Sweep(from, true, nil, nil, visit)
}

// ScanAll returns every entry in key order (tests).
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
// high_j); the value is stored as a float32 rounded outward, down for a
// MinSlot and up for a MaxSlot, so the slot still bounds it.
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
// bits would move, each value rounded outward as its slot stores it: almost
// every merge leaves a slot — the extremum of everything routed to the leaf —
// where it was, and under a batch such a merge clones nothing; one that moves
// a slot shadows the path the read descent still holds. The bits written are those the unconditional write
// would have left, so page contents do not depend on the check (DESIGN.md
// §20).
func (t *Tree) mergeSlots(e Entry, vals []float64) error {
	c := cursor{t: t}
	defer c.close()
	leaf, err := c.find(e)
	if err != nil {
		return err
	}
	var merged [maxHandicaps]float64
	moves := false
	for s, k := range t.cfg.HandicapKinds {
		old := leaf.handicap(s)
		merged[s] = k.Combine(old, k.round(vals[s]))
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

// HandicapMerge is one MergeHandicap call held back for SetHandicaps.
type HandicapMerge struct {
	RouteKey float64
	Slot     int
	Value    float64
}

// SetHandicaps is the one whole-tree writer of the handicap slots and the
// child bounds. It sets each leaf's slots to the fold of the merges in ms that
// route to it, rounded once as MergeHandicap rounds, and to their identities
// where no merge routes. These are the bits one MergeHandicap call per merge,
// in any order, leaves in slots that start at their identities, since min and
// max are associative, commutative and idempotent over these values. With ext
// non-nil it also derives every child's bound exactly from ext, the x-extent
// of the entry with each tuple id: the union over the subtree, rounded
// outward. With ext nil the bounds stay as they are. SetHandicaps(nil, nil)
// resets every slot.
//
// It bins each route key over the tree's separators by the descent's own rule
// (a leaf owns the entries not less than the separator before it and less
// than the one after, so a route key equal to a separator's goes left), eight
// at a time by a branch-free search over the separators packed as integers
// (leavesOf), and then walks the tree once top-down, each page pinned once and
// made writable on the way: under an open copy-on-write batch that shadows the
// whole tree, each clone linked into its parent as the walk unwinds; outside a
// batch writable is the identity and the nodes are rewritten in place.
func (t *Tree) SetHandicaps(ms []HandicapMerge, ext func(tid uint32) [2]float64) error {
	seps, err := t.appendSeparators(nil, t.root, t.hgt)
	if err != nil {
		return err
	}
	kinds := t.cfg.HandicapKinds
	acc := make([]float64, (len(seps)+1)*len(kinds))
	for i := range acc {
		acc[i] = kinds[i%len(kinds)].Identity()
	}
	for len(ms) > 0 {
		batch := ms[:min(len(ms), 8)]
		var probes [8]uint64
		for i, m := range batch {
			probes[i] = probe(m.RouteKey)
		}
		leaves := leavesOf(seps, &probes)
		for i, m := range batch {
			at := leaves[i]*len(kinds) + m.Slot
			acc[at] = kinds[m.Slot].Combine(acc[at], m.Value)
		}
		ms = ms[len(batch):]
	}
	slots := acc // the next leaf's, in key order
	var walk func(id pagestore.PageID, height int) (pagestore.PageID, [2]float64, error)
	walk = func(id pagestore.PageID, height int) (pagestore.PageID, [2]float64, error) {
		x := emptyExtent
		n, err := t.getAt(id, height)
		if err != nil {
			return id, x, err
		}
		if n, err = t.writable(n); err != nil {
			return id, x, err
		}
		self := n.id()
		defer n.release()
		if n.isLeaf() {
			for s, k := range kinds {
				n.setHandicap(s, k.round(slots[s]))
			}
			slots = slots[len(kinds):]
			if ext != nil {
				for i := 0; i < n.count(); i++ {
					x = Union(x, ext(n.entry(i).TID))
				}
			}
			return self, x, nil
		}
		for i := 0; i <= n.count(); i++ {
			nc, cx, err := walk(n.child(i), height-1)
			if nc != n.child(i) {
				n.setChild(i, nc)
			}
			if err != nil {
				return self, x, err
			}
			if ext != nil {
				n.setChildExt(i, cx)
				x = Union(x, cx)
			}
		}
		return self, x, nil
	}
	root, x, err := walk(t.root, t.hgt)
	t.root = root
	if ext != nil && err == nil {
		t.rootExt = roundOut(x)
	}
	return err
}

// sortKey packs the entry {key, tid}, key a stored key and not NaN, into one
// integer whose unsigned order is Entry.Less's: the key's float32 bits mapped
// so that they order as the numbers do, above the TID. −0 packs as +0 — Less
// holds the two equal and orders them by TID.
func sortKey(key float64, tid uint32) uint64 {
	b := math.Float32bits(float32(key))
	if b == 1<<31 {
		b = 0
	}
	if b>>31 != 0 {
		b = ^b // negative: a larger magnitude orders lower
	} else {
		b |= 1 << 31
	}
	return uint64(b)<<32 | uint64(tid)
}

// keyOf is the stored key sortKey packed into k (a −0 key comes back +0).
func keyOf(k uint64) float64 {
	b := uint32(k >> 32)
	if b>>31 != 0 {
		b &^= 1 << 31
	} else {
		b = ^b
	}
	return float64(math.Float32frombits(b))
}

// sortEntries sorts entries, their keys stored keys, in composite order
// (Entry.Compare): it sorts their sortKeys (radixSort), and the −0 keys, which
// pack as +0, get their sign back from a list of their TIDs in the same order.
// Entries already in order are left as they are, after one pass.
func sortEntries(entries []Entry) {
	inOrder := true
	for i := 1; i < len(entries) && inOrder; i++ {
		inOrder = !entries[i].Less(entries[i-1])
	}
	if inOrder {
		return
	}
	packed := make([]uint64, len(entries))
	var negZero []uint32
	for i, e := range entries {
		if math.Float64bits(e.Key) == 1<<63 {
			negZero = append(negZero, e.TID)
		}
		packed[i] = sortKey(e.Key, e.TID)
	}
	radixSort(packed)
	slices.Sort(negZero)
	for i, k := range packed {
		e := Entry{Key: keyOf(k), TID: uint32(k)}
		if len(negZero) > 0 && e.Key == 0 && e.TID == negZero[0] {
			e.Key, negZero = math.Copysign(0, -1), negZero[1:]
		}
		entries[i] = e
	}
}

// radixSort sorts a in ascending order: a stable counting pass a byte, from
// the lowest, skipping a byte every element shares (the high bytes of small
// TIDs).
func radixSort(a []uint64) {
	if len(a) < 2 {
		return
	}
	var counts [8][256]int
	for _, v := range a {
		for d := range counts {
			counts[d][byte(v>>(8*d))]++
		}
	}
	src, dst := a, make([]uint64, len(a))
	for d := range counts {
		c, shift := &counts[d], 8*d
		if c[byte(a[0]>>shift)] == len(a) {
			continue
		}
		at := 0
		for b, n := range c {
			c[b], at = at, at+n
		}
		for _, v := range src {
			b := byte(v >> shift)
			dst[c[b]] = v
			c[b]++
		}
		src, dst = dst, src
	}
	copy(a, src)
}

// probe packs the entry {RoundKey(key), TID 0} a route key stands for, as
// sortKey packs a stored entry; a NaN key, which Entry.Less orders after no
// entry, packs as the largest integer.
func probe(key float64) uint64 {
	if key != key {
		return math.MaxUint64
	}
	return sortKey(RoundKey(key), 0)
}

// leavesOf returns, for each probe, the leaf — counted from 0 in key order —
// that owns it in a tree whose separators are seps, packed by sortKey: the
// number of separators that do not follow it, so that a route key equal to a
// separator's key goes to the leaf before it, as the descent sends it. The
// searches are branch-free and run side by side, so that one's loads need not
// wait for another's.
func leavesOf(seps []uint64, probes *[8]uint64) (leaves [8]int) {
	if len(seps) == 0 {
		return leaves
	}
	for n := len(seps); n > 1; n -= n >> 1 {
		half := n >> 1
		for i, p := range probes {
			// borrow is 1 when the separator follows the probe.
			_, borrow := bits.Sub64(p, seps[leaves[i]+half], 0)
			leaves[i] += half &^ -int(borrow)
		}
	}
	for i, p := range probes {
		if seps[leaves[i]] <= p {
			leaves[i]++
		}
	}
	return leaves
}

// appendSeparators appends the separators of the subtree at id, height levels
// tall, in key order, packed by sortKey: one between every two neighbouring
// leaves. Leaves are not read.
func (t *Tree) appendSeparators(seps []uint64, id pagestore.PageID, height int) ([]uint64, error) {
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
			s := n.sep(i - 1)
			seps = append(seps, sortKey(s.Key, s.TID))
		}
		if seps, err = t.appendSeparators(seps, n.child(i), height-1); err != nil {
			return nil, err
		}
	}
	return seps, nil
}

// BulkLoad builds the tree from entries in any order: it rounds their keys in
// place (RoundKey) and sorts them in composite order of the stored keys. The
// tree must be empty. Leaves are packed to the configured fill factor, which
// is how the experiment trees are built. Every bound is NoExtent and every
// slot its identity until SetHandicaps sets them.
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
	sortEntries(entries)
	perLeaf := int(float64(t.leafCap) * DefaultFillFactor) // leafCap ≥ 3, so ≥ 2
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
			in.setChildExt(0, NoExtent)
			for j := 1; j < n; j++ {
				in.insertSepAt(j-1, level[i+j].sep, level[i+j].page, NoExtent)
			}
			up = append(up, levelEntry{sep: level[i].sep, page: in.id()})
			in.release()
			i += n
		}
		level = up
		t.hgt++
	}
	t.root, t.rootExt = level[0].page, NoExtent
	return nil
}

// CheckInvariants walks the whole tree verifying ordering, occupancy,
// separator consistency and that every child's bound holds the bounds its
// own node keeps — the root's, the tree's root bound; it returns a
// descriptive error on the first violation. Test-support API.
func (t *Tree) CheckInvariants() error {
	var lastEntry *Entry
	count := 0
	var walk func(id pagestore.PageID, height int, lo, hi *Entry, x [2]float64) error
	walk = func(id pagestore.PageID, height int, lo, hi *Entry, x [2]float64) error {
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
			cx := n.childExt(i)
			if !Holds(x, cx) {
				return errf("internal %d: child %d's bound %v outside its own %v", id, i, cx, x)
			}
			if err := walk(n.child(i), height-1, clo, chi, cx); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, t.hgt, nil, nil, t.rootExt); err != nil {
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

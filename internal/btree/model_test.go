package btree

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dualcdb/internal/pagestore"
)

// Model test for versioned sweeps: a byte string is a history of batches,
// mutations, pinned handles and sweeps over one copy-on-write tree, and
// after every step the live tree and every pinned handle must equal a
// sorted-slice model. Pages are 128 bytes (13 entries a leaf, 6 children an
// internal node) over a 16-frame pool, so a few dozen operations cross leaf
// and internal splits, borrows, merges, root growth and collapse, and every
// version's pages go through the store: a page freed while a handle can
// still reach it reads as ErrPageNotFound. Leaves carry a min and a max
// handicap slot: merges and folds must leave every leaf of the live tree the
// bits a reference fold over the walk's leaf ranges gives, and a pinned
// version or an aborted batch the bits it had. Every entry has an x-extent
// (extOf): each leaf's bound must hold its entries' extents, in every version,
// and a sweep under a random skip test must hand out every entry the test
// would keep.

const (
	opBegin = iota
	opCommit
	opAbort
	opInsert    // key
	opInsertRun // key, stride, n
	opInsertDup // position: re-insert a present entry
	opDelete    // position
	opDeleteRun // position, n
	opDeleteMiss
	opPin
	opUnpin
	opSweep // direction+stop, from-selector, from-argument
	opReset
	opFold // mode, n, then n × (route selector, route argument, slot+value)
	numOps
)

// maxPins bounds the handles a history holds; pinning one more drops the
// oldest.
const maxPins = 4

type pinnedVersion struct {
	h     *Tree
	model []Entry
	slots [][]float64 // per leaf in key order, at the pin
	ver   uint64
}

// coverage records which structural events a set of histories reached.
type coverage struct {
	maxHeight                       int
	collapsed, emptied, merged      bool
	sweptPinned, stoppedEarly, dups bool
	folded, onSeparator             bool
	passed                          bool // a skip test passed a subtree
}

type cowHistory struct {
	t       testing.TB
	data    []byte
	store   *pagestore.MemStore
	pool    *pagestore.Pool
	tr      *Tree
	live    []Entry     // the live tree's entries, sorted
	saved   []Entry     // live at BeginCOW
	slots   [][]float64 // the live tree's slots at BeginCOW
	ver     uint64
	nextTID uint32
	pins    []pinnedVersion
	cov     *coverage
}

func (h *cowHistory) next() int {
	if len(h.data) == 0 {
		return 0
	}
	b := h.data[0]
	h.data = h.data[1:]
	return int(b)
}

// extOf is the x-extent the model gives the entry with id tid: none (the
// whole line) for one in 61, from the 60th on, else an interval of width 0 to
// 4/3 whose ends are mostly thirds, which no float32 holds.
func extOf(tid uint32) [2]float64 {
	if tid%61 == 60 {
		return NoExtent
	}
	lo := float64(int(tid*37%201)-100) / 3
	return [2]float64{lo, lo + float64(tid%5)/3}
}

func (h *cowHistory) insert(key float64) {
	h.nextTID++
	e := Entry{Key: key, TID: h.nextTID}
	if err := h.tr.InsertExt(e.Key, e.TID, extOf(e.TID)); err != nil {
		h.t.Fatalf("insert %v: %v", e, err)
	}
	i, _ := slices.BinarySearchFunc(h.live, e, Entry.Compare)
	h.live = slices.Insert(h.live, i, e)
}

func (h *cowHistory) delete(i int) {
	e := h.live[i]
	pages, height := h.tr.Pages(), h.tr.Height()
	found, err := h.tr.Delete(e.Key, e.TID)
	if err != nil || !found {
		h.t.Fatalf("delete %v: found %v, err %v", e, found, err)
	}
	h.live = slices.Delete(h.live, i, i+1)
	h.cov.merged = h.cov.merged || h.tr.Pages() < pages
	h.cov.collapsed = h.cov.collapsed || h.tr.Height() < height
	h.cov.emptied = h.cov.emptied || len(h.live) == 0
}

func (h *cowHistory) begin() {
	h.tr.BeginCOW()
	h.saved = slices.Clone(h.live)
	h.slots = slotsOf(walkLeaves(h.t, h.tr))
}

func (h *cowHistory) commit() {
	h.ver++
	h.pool.DeferFrees(h.ver, h.tr.CommitCOW())
}

// mutate runs one mutating operation: inside the open batch when there is
// one, in place while no handle is pinned (how a tree is built), and
// otherwise as a batch of its own — in-place edits are not versioned.
func (h *cowHistory) mutate(op func()) {
	own := !h.tr.InCOW() && len(h.pins) > 0
	if own {
		h.begin()
	}
	op()
	if own {
		h.commit()
	}
}

func (h *cowHistory) unpin(i int) {
	h.pool.UnpinVersion(h.pins[i].ver)
	h.pins = slices.Delete(h.pins, i, i+1)
}

// refLeafRange is one leaf as an independent top-down walk finds it: its
// entries and handicap slots, the separator bounds lo ≤ e < hi of the
// entries it owns (nil: open), its bound as its parent keeps it (NoExtent at
// the root) and the internal pages on its path from the root.
type refLeafRange struct {
	page    pagestore.PageID
	entries []Entry
	slots   []float64
	lo, hi  *Entry
	x       [2]float64
	path    []pagestore.PageID
}

// owns reports whether a descent for e ends in this leaf.
func (l refLeafRange) owns(e Entry) bool {
	return (l.lo == nil || !e.Less(*l.lo)) && (l.hi == nil || e.Less(*l.hi))
}

func slotsOf(leaves []refLeafRange) [][]float64 {
	out := make([][]float64, len(leaves))
	for i, l := range leaves {
		out[i] = l.slots
	}
	return out
}

// sameSlots compares slot for slot by bit pattern.
func sameSlots(a, b [][]float64) bool {
	return slices.EqualFunc(a, b, func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) })
	})
}

// walkLeaves returns tr's leaves in key order — the reference the cursor's
// sweeps and page reads are checked against.
func walkLeaves(t testing.TB, tr *Tree) []refLeafRange {
	t.Helper()
	var out []refLeafRange
	var rec func(id pagestore.PageID, lo, hi *Entry, x [2]float64, path []pagestore.PageID)
	rec = func(id pagestore.PageID, lo, hi *Entry, x [2]float64, path []pagestore.PageID) {
		n, err := tr.get(id)
		if err != nil {
			t.Fatalf("walk: page %d: %v", id, err)
		}
		if n.isLeaf() {
			l := refLeafRange{page: id, lo: lo, hi: hi, x: x, path: path}
			for i := 0; i < n.count(); i++ {
				l.entries = append(l.entries, n.entry(i))
			}
			for s := 0; s < n.numHandicaps(); s++ {
				l.slots = append(l.slots, n.handicap(s))
			}
			n.release()
			out = append(out, l)
			return
		}
		seps := make([]Entry, n.count())
		kids := make([]pagestore.PageID, n.count()+1)
		exts := make([][2]float64, n.count()+1)
		for i := range seps {
			seps[i] = n.sep(i)
		}
		for i := range kids {
			kids[i], exts[i] = n.child(i), n.childExt(i)
		}
		n.release() // the recursion must fit a 16-frame pool
		path = append(path[:len(path):len(path)], id)
		for i, kid := range kids {
			clo, chi := lo, hi
			if i > 0 {
				clo = &seps[i-1]
			}
			if i < len(seps) {
				chi = &seps[i]
			}
			rec(kid, clo, chi, exts[i], path)
		}
	}
	rec(tr.root, nil, nil, NoExtent, nil)
	return out
}

// check compares one version against its model.
func (h *cowHistory) check(what string, tr *Tree, model []Entry) []refLeafRange {
	if err := tr.CheckInvariants(); err != nil {
		h.t.Fatalf("%s: %v", what, err)
	}
	if tr.Len() != len(model) {
		h.t.Fatalf("%s: Len %d, model %d", what, tr.Len(), len(model))
	}
	leaves := walkLeaves(h.t, tr)
	var got []Entry
	for _, l := range leaves {
		got = append(got, l.entries...)
		for _, e := range l.entries {
			if !Holds(l.x, extOf(e.TID)) {
				h.t.Fatalf("%s: leaf %d's bound %v does not hold entry %v's extent %v", what, l.page, l.x, e, extOf(e.TID))
			}
		}
	}
	if !slices.Equal(got, model) {
		h.t.Fatalf("%s: tree holds %d entries, model %d; first difference at %d", what, len(got), len(model), firstDiff(got, model))
	}
	return leaves
}

func firstDiff(a, b []Entry) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

func (h *cowHistory) checkAll() {
	h.check("live", h.tr, h.live)
	for _, p := range h.pins {
		if got := slotsOf(h.check("pinned", p.h, p.model)); !sameSlots(got, p.slots) {
			h.t.Fatalf("pinned version %d: slots %v, at the pin %v", p.ver, got, p.slots)
		}
	}
	if r := h.pool.Residency(); r.Pinned != 0 {
		h.t.Fatalf("%d frames left pinned", r.Pinned)
	}
}

// sweep runs one sweep on tr and checks it leaf by leaf against the walk:
// it must start at the leaf owning (from, 0) — (from, MaxUint32) downward —
// follow key order, hand out each leaf's own entries and stop when told.
func (h *cowHistory) sweep(what string, tr *Tree, model []Entry, asc bool, sel, arg, stop int) {
	leaves := h.check(what, tr, model)
	var from float64
	switch sel % 5 {
	case 0:
		from = math.Inf(-1)
	case 1:
		from = math.Inf(1)
	case 2:
		from = float64(arg) - 0.5 // between stored keys
	case 3:
		if len(model) > 0 {
			from = model[arg*len(model)/256].Key
		}
	case 4: // between two leaves, or on the boundary when a key spans both
		if i := arg * len(leaves) / 256; i+1 < len(leaves) {
			last := leaves[i].entries[len(leaves[i].entries)-1]
			from = (last.Key + leaves[i+1].entries[0].Key) / 2
		}
	}
	probe := Entry{Key: from}
	if !asc {
		probe.TID = math.MaxUint32
	}
	start := slices.IndexFunc(leaves, func(l refLeafRange) bool { return l.owns(probe) })
	if start < 0 {
		h.t.Fatalf("%s: no leaf owns %v", what, probe)
	}
	want := leaves[start:]
	if !asc {
		want = slices.Clone(leaves[:start+1])
		slices.Reverse(want)
	}
	if stop > 0 && stop < len(want) {
		want = want[:stop]
		h.cov.stoppedEarly = true
	}
	calls := 0
	visit := func(lv LeafView) bool {
		if calls >= len(want) {
			h.t.Fatalf("%s: sweep(asc=%v, from=%v, stop=%d) visited more than %d leaves", what, asc, from, stop, len(want))
		}
		w := want[calls]
		if lv.Page != w.page || !slices.Equal(lv.AppendEntries(nil), w.entries) {
			h.t.Fatalf("%s: sweep(asc=%v, from=%v) leaf %d: page %d with %d entries, want page %d with %d",
				what, asc, from, calls, lv.Page, lv.Len(), w.page, len(w.entries))
		}
		calls++
		return calls != stop
	}
	var err error
	if asc {
		err = tr.VisitLeavesAsc(from, visit)
	} else {
		err = tr.Sweep(from, false, nil, nil, visit)
	}
	if err != nil || calls != len(want) {
		h.t.Fatalf("%s: sweep(asc=%v, from=%v, stop=%d) visited %d of %d leaves, err %v", what, asc, from, stop, calls, len(want), err)
	}
}

// skipSweep runs one sweep on tr from `from` under a skip test that keeps
// the entries with a key in [kl, kl + 64] whose extent meets [xl, xl + 10]:
// it passes a child whose Bound rules every such entry out and stops at one
// wholly past the key range. The leaves it visits must come in the walk's
// order, and among their entries must be every entry of the model the test
// keeps on the sweep's side of its start.
func (h *cowHistory) skipSweep(what string, tr *Tree, model []Entry, asc bool, from, kl, xl float64) {
	leaves := h.check(what, tr, model)
	kh, xh := kl+64, xl+10
	keep := func(e Entry) bool {
		x := extOf(e.TID)
		return e.Key >= kl && e.Key <= kh && x[1] >= xl && x[0] <= xh
	}
	skip := func(b Bound) Step {
		switch {
		case asc && b.Lo > kh, !asc && b.Hi < kl:
			return Stop
		case b.Hi < kl || b.Lo > kh || b.X[1] < xl || b.X[0] > xh:
			h.cov.passed = true
			return Pass
		}
		return Enter
	}
	probe := Entry{Key: RoundKey(from)}
	if !asc {
		probe.TID = math.MaxUint32
	}
	start := slices.IndexFunc(leaves, func(l refLeafRange) bool { return l.owns(probe) })
	order := leaves[start:]
	if !asc {
		order = slices.Clone(leaves[:start+1])
		slices.Reverse(order)
	}
	var want, got []Entry
	for _, l := range order {
		for _, e := range l.entries {
			if keep(e) {
				want = append(want, e)
			}
		}
	}
	at := 0
	err := tr.Sweep(from, asc, nil, skip, func(lv LeafView) bool {
		for at < len(order) && order[at].page != lv.Page {
			at++
		}
		if at == len(order) {
			h.t.Fatalf("%s: skip sweep(asc=%v, from=%v) visited page %d out of order", what, asc, from, lv.Page)
		}
		if lv.Extent() != order[at].x {
			h.t.Fatalf("%s: leaf %d's Extent %v, its parent's record %v", what, lv.Page, lv.Extent(), order[at].x)
		}
		for _, e := range lv.AppendEntries(nil) {
			if keep(e) {
				got = append(got, e)
			}
		}
		return true
	})
	if err != nil || !slices.Equal(got, want) {
		h.t.Fatalf("%s: skip sweep(asc=%v, from=%v, keys [%v, %v], x [%v, %v]) kept %d entries, the model %d; err %v",
			what, asc, from, kl, kh, xl, xh, len(got), len(want), err)
	}
}

// fold decodes n merges — route keys at −Inf, +Inf, between stored keys, on a
// stored key, on a separator — applies them through SetHandicaps (or, mode
// odd, one MergeHandicap each) and requires of every leaf the bits of a
// reference fold: each value combined into the leaf whose separator bounds
// own (routeKey, 0), starting from identity slots for SetHandicaps and from
// the slots held before for MergeHandicap.
func (h *cowHistory) fold(mode, n int) {
	before := walkLeaves(h.t, h.tr)
	want := make([][]float64, len(before))
	for i, l := range before {
		want[i] = slices.Clone(l.slots)
		if mode&1 == 0 {
			for s, k := range h.tr.cfg.HandicapKinds {
				want[i][s] = k.Identity()
			}
		}
	}
	ms := make([]HandicapMerge, n)
	for j := range ms {
		sel, arg, sv := h.next(), h.next(), h.next()
		m := HandicapMerge{Slot: sv & 1, Value: float64(sv>>1) - 64}
		switch sel % 5 {
		case 0:
			m.RouteKey = math.Inf(-1)
		case 1:
			m.RouteKey = math.Inf(1)
		case 2:
			m.RouteKey = float64(arg) - 0.5
		case 3:
			m.RouteKey = float64(arg)
		case 4:
			if l := before[arg*len(before)/256]; l.lo != nil {
				m.RouteKey = l.lo.Key
				h.cov.onSeparator = true
			}
		}
		ms[j] = m
		at := slices.IndexFunc(before, func(l refLeafRange) bool { return l.owns(Entry{Key: m.RouteKey}) })
		want[at][m.Slot] = h.tr.cfg.HandicapKinds[m.Slot].Combine(want[at][m.Slot], m.Value)
	}
	h.mutate(func() {
		if mode&1 == 0 {
			if err := h.tr.SetHandicaps(ms, nil); err != nil {
				h.t.Fatalf("set: %v", err)
			}
			return
		}
		for _, m := range ms {
			if err := h.tr.MergeHandicap(m.RouteKey, m.Slot, m.Value); err != nil {
				h.t.Fatalf("merge: %v", err)
			}
		}
	})
	if got := slotsOf(walkLeaves(h.t, h.tr)); !sameSlots(got, want) {
		h.t.Fatalf("fold (mode %d) of %v over slots %v: got %v, want %v", mode&1, ms, slotsOf(before), got, want)
	}
	h.cov.folded = h.cov.folded || (n > 0 && !sameSlots(want, slotsOf(before)))
}

// runCOWHistory decodes data into operations and checks every version
// against the model after each; operations that do not apply in the current
// state (Commit outside a batch, Delete on an empty tree, …) are skipped.
func runCOWHistory(t testing.TB, data []byte, cov *coverage) {
	store := pagestore.NewMemStore(128)
	pool := pagestore.NewPool(store, 16)
	tr, err := New(pool, Config{HandicapKinds: []SlotKind{MinSlot, MaxSlot}})
	if err != nil {
		t.Fatal(err)
	}
	h := &cowHistory{t: t, data: data, store: store, pool: pool, tr: tr, ver: 1, cov: cov}
	for len(h.data) > 0 {
		switch op := h.next() % numOps; op {
		case opBegin:
			if !tr.InCOW() {
				h.begin()
			}
		case opCommit:
			if tr.InCOW() {
				h.commit()
			}
		case opAbort:
			if tr.InCOW() {
				if err := tr.AbortCOW(); err != nil {
					t.Fatalf("abort: %v", err)
				}
				h.live = h.saved
				if got := slotsOf(walkLeaves(t, tr)); !sameSlots(got, h.slots) {
					t.Fatalf("abort: slots %v, at the batch's start %v", got, h.slots)
				}
			}
		case opInsert:
			key := float64(h.next())
			h.mutate(func() { h.insert(key) })
		case opInsertRun:
			key, stride, n := h.next(), h.next()%4, h.next()%48
			h.cov.dups = h.cov.dups || (stride == 0 && n > 9)
			h.mutate(func() {
				for j := 0; j < n; j++ {
					h.insert(float64((key + j*stride) % 256))
				}
			})
		case opInsertDup:
			if at := h.next(); len(h.live) > 0 {
				e := h.live[at*len(h.live)/256]
				h.mutate(func() {
					if err := tr.Insert(e.Key, e.TID); !errors.Is(err, ErrDuplicate) {
						t.Fatalf("re-insert %v: %v, want ErrDuplicate", e, err)
					}
				})
			}
		case opDelete:
			if at := h.next(); len(h.live) > 0 {
				h.mutate(func() { h.delete(at * len(h.live) / 256) })
			}
		case opDeleteRun:
			at, n := h.next(), h.next()%48
			h.mutate(func() {
				for j := 0; j < n && len(h.live) > 0; j++ {
					h.delete(min(at*len(h.live)/256, len(h.live)-1))
				}
			})
		case opDeleteMiss:
			key := float64(h.next()) + 0.25
			h.mutate(func() {
				if found, err := tr.Delete(key, 1); found || err != nil {
					t.Fatalf("delete of an absent entry: found %v, err %v", found, err)
				}
			})
		case opPin:
			// A handle freezes a committed version: mid-batch the live Meta
			// names pages the batch still rewrites in place.
			if !tr.InCOW() {
				if len(h.pins) == maxPins {
					h.unpin(0)
				}
				pool.PinVersion(h.ver)
				h.pins = append(h.pins, pinnedVersion{h: handleOf(tr), model: slices.Clone(h.live), slots: slotsOf(walkLeaves(t, tr)), ver: h.ver})
			}
		case opUnpin:
			if len(h.pins) > 0 {
				h.unpin(h.next() * len(h.pins) / 256)
			}
		case opSweep:
			mode, sel, arg := h.next(), h.next(), h.next()
			asc, stop := mode&1 == 0, mode>>1%4 // stop 0: to the end
			h.sweep("live", tr, h.live, asc, sel, arg, stop)
			for _, p := range h.pins {
				h.sweep("pinned", p.h, p.model, asc, sel, arg, stop)
				h.cov.sweptPinned = h.cov.sweptPinned || p.ver < h.ver
			}
			// The same bytes pick a skip test: its key range starts near
			// arg, its x range anywhere in the model's [−34, 34].
			from, kl, xl := float64(arg), float64(arg)-float64(sel%48), float64(int(sel*7%68)-34)
			if mode&8 != 0 {
				from = math.Inf(-1 + 2*(mode&1))
			}
			h.skipSweep("live", tr, h.live, asc, from, kl, xl)
			for _, p := range h.pins {
				h.skipSweep("pinned", p.h, p.model, asc, from, kl, xl)
			}
		case opReset:
			h.mutate(func() {
				if err := tr.SetHandicaps(nil, nil); err != nil {
					t.Fatalf("reset: %v", err)
				}
			})
		case opFold:
			mode, n := h.next(), h.next()%24
			h.fold(mode, n)
		}
		h.cov.maxHeight = max(h.cov.maxHeight, tr.Height())
		h.checkAll()
	}
	// Wind down: with no batch open and no version pinned, the store holds
	// the live tree's pages and nothing else — no leak, no double free.
	if tr.InCOW() {
		h.commit()
	}
	for len(h.pins) > 0 {
		h.unpin(0)
	}
	h.checkAll()
	if got := store.NumAllocated(); got != tr.Pages() {
		t.Fatalf("store holds %d pages, the tree %d", got, tr.Pages())
	}
}

// cowSeeds are hand-written histories, also the fuzz target's seed corpus.
// grow and shrink take the tree to height 3 and back to one empty leaf.
func cowSeeds() [][]byte {
	sweeps := []byte{
		opSweep, 0, 0, 0, opSweep, 1, 1, 0, opSweep, 0, 2, 100, opSweep, 1, 2, 60,
		opSweep, 2, 3, 128, opSweep, 5, 3, 200, opSweep, 0, 4, 40, opSweep, 1, 4, 160, opSweep, 3, 4, 250,
	}
	grow := []byte{opInsertRun, 0, 1, 47, opInsertRun, 47, 1, 47, opInsertRun, 94, 1, 47, opInsertRun, 141, 1, 47}
	shrink := []byte{opDeleteRun, 128, 47, opDeleteRun, 0, 47, opDeleteRun, 255, 47, opDeleteRun, 100, 47}
	folds := []byte{
		opFold, 0, 6, 0, 0, 10, 1, 0, 201, 2, 90, 30, 3, 91, 251, 4, 60, 20, 4, 200, 131,
		opFold, 1, 4, 4, 128, 0, 4, 128, 255, 3, 17, 40, 2, 17, 41,
		opFold, 0, 2, 0, 0, 10, 1, 0, 201, // a set of the first fold's first two merges: every other value goes
	}
	cat := func(parts ...[]byte) []byte { return slices.Concat(parts...) }
	return [][]byte{
		// The empty tree, swept, pinned, and grown under the pin.
		cat(sweeps, []byte{opPin, opBegin}, grow, []byte{opCommit}, sweeps),
		// In-place growth, then a pin and batches that split and merge under it.
		cat(grow, []byte{opPin, opBegin}, grow, []byte{opCommit, opPin}, sweeps,
			[]byte{opBegin}, shrink, []byte{opCommit, opPin}, sweeps,
			[]byte{opBegin}, shrink, []byte{opCommit}, sweeps, []byte{opUnpin, 0}, sweeps),
		// One key across many leaves: sweeps from it start at its first and
		// last leaf.
		cat([]byte{opInsertRun, 7, 0, 40, opInsertRun, 7, 0, 40, opInsertRun, 3, 0, 30, opPin},
			[]byte{opSweep, 0, 2, 7, opSweep, 1, 2, 7, opSweep, 0, 3, 128, opSweep, 1, 3, 128, opSweep, 0, 4, 128, opSweep, 1, 4, 128},
			[]byte{opBegin, opDeleteRun, 90, 40, opCommit}, sweeps),
		// Aborts, failed inserts and missing deletes inside batches.
		cat(grow, []byte{opPin, opBegin}, shrink, []byte{opInsertDup, 9, opDeleteMiss, 40, opAbort}, sweeps,
			[]byte{opBegin, opInsertDup, 200, opDeleteMiss, 3, opCommit, opPin, opBegin}, grow, []byte{opAbort}, sweeps),
		// Whole-tree shadowing under a pin, in a batch and in place.
		cat(grow, []byte{opPin, opBegin, opReset, opCommit, opPin, opReset}, sweeps, []byte{opBegin, opReset, opAbort}, sweeps),
		// Folds and single merges at both ends, between keys, on keys and on
		// separators: in place, under pins, in a batch that aborts and in one
		// that splits and merges leaves around them.
		cat(grow, folds, []byte{opPin}, folds, []byte{opBegin}, folds, grow, []byte{opAbort, opBegin}, folds, shrink, folds,
			[]byte{opCommit, opPin, opBegin, opReset}, folds, []byte{opCommit}, sweeps),
	}
}

// TestCOWSweepMatchesModel runs the hand-written histories and a few hundred
// seeded random ones, and requires that together they reached what the model
// is for: height 3, merges, root collapse, the empty tree, duplicate keys
// across leaves, early stops, sweeps of a version older than the live one,
// folds that move slots, some routed by a separator's own key, and skip tests
// that passed a subtree.
func TestCOWSweepMatchesModel(t *testing.T) {
	var cov coverage
	for _, seed := range cowSeeds() {
		runCOWHistory(t, seed, &cov)
	}
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 300; i++ {
		data := make([]byte, 40+rng.Intn(200))
		rng.Read(data)
		runCOWHistory(t, data, &cov)
	}
	if cov.maxHeight < 3 || !cov.collapsed || !cov.emptied || !cov.merged || !cov.sweptPinned || !cov.stoppedEarly || !cov.dups || !cov.folded || !cov.onSeparator || !cov.passed {
		t.Fatalf("histories missed part of the state space: %+v", cov)
	}
}

// FuzzCOWSweep is the same check over arbitrary histories.
func FuzzCOWSweep(f *testing.F) {
	for _, seed := range cowSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			t.Skip() // the per-step check is quadratic in the history
		}
		runCOWHistory(t, data, &coverage{})
	})
}

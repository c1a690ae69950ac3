// Package btree is a golden-test stand-in for dualcdb/internal/btree: the
// pinleak borrow check matches the view/leafView/release methods by
// import-path suffix, so this fake mirrors the real package's borrow
// surface (a node wrapping a pinned frame, views sliced from its bytes)
// without importing the real module.
package btree

import "pagestore"

type viewMeta struct{ count uint16 }

// node wraps a pinned frame, as in the real package.
type node struct {
	frame *pagestore.Frame
	data  []byte
}

func (n node) view(m viewMeta) nodeView { return nodeView{data: n.data} }
func (n node) release()                 { n.frame.Release() }
func (n node) isLeaf() bool             { return true }

// nodeView borrows the frame's bytes: dead once the frame is released.
type nodeView struct{ data []byte }

func (v nodeView) key(i int) float64        { return 0 }
func (v nodeView) child(i int) uint32       { return 0 }
func (v nodeView) childIndex(k float64) int { return 0 }

// LeafView is the public borrow handed to sweep callbacks.
type LeafView struct{ v nodeView }

func (lv LeafView) Len() int          { return 0 }
func (lv LeafView) Key(i int) float64 { return lv.v.key(i) }
func (lv LeafView) TID(i int) uint32  { return 0 }

type Tree struct{ pool *pagestore.Pool }

func (t *Tree) leafView(leaf node) LeafView {
	// Returning the borrow transfers it to the caller: no release happens
	// in this body, so this is clean.
	return LeafView{v: leaf.view(viewMeta{})}
}

func (t *Tree) getNode(id uint32) (node, error) { return node{}, nil }

// cursor mirrors the real package's root-to-leaf path: step hands out the
// next leaf pinned.
type cursor struct{ t *Tree }

func (c *cursor) step() (node, bool, error) { return node{}, false, nil }

func sinkEntry(float64) {}

// --- clean shapes -----------------------------------------------------

// releaseAfterVisit is the sweep protocol: every read of the view happens
// before the frame goes back to the pool.
func releaseAfterVisit(t *Tree, leaf node, visit func(LeafView) bool) {
	lv := t.leafView(leaf)
	more := visit(lv)
	leaf.release()
	_ = more
}

// deferredRelease runs after the return value is computed; the view is
// readable throughout the body.
func deferredRelease(t *Tree, leaf node) float64 {
	lv := t.leafView(leaf)
	defer leaf.release()
	return lv.Key(0)
}

// reBorrowLoop mirrors Tree.sweep: the view is built, handed to visit and
// dead before the release, and the cursor rebinds the lender each round, so
// the stale pair from the previous round never reaches a read.
func reBorrowLoop(t *Tree, c *cursor, leaf node, visit func(LeafView) bool) error {
	var err error
	for ok := true; err == nil && ok; leaf, ok, err = c.step() {
		more := visit(t.leafView(leaf))
		leaf.release()
		if !more {
			break
		}
	}
	return err
}

// descentView routes through views in a hand-over-hand descent: the internal-node view is
// consumed before the node is released and the loop re-borrows.
func descentView(t *Tree, n node) uint32 {
	var child uint32
	for !n.isLeaf() {
		v := n.view(viewMeta{})
		child = v.child(v.childIndex(0))
		n.release()
		n, _ = t.getNode(child)
	}
	n.release()
	return child
}

// handedToCaller transfers the borrow out: the caller owns the release
// ordering now.
func handedToCaller(t *Tree, leaf node) LeafView {
	lv := t.leafView(leaf)
	return lv
}

// --- violations -------------------------------------------------------

func useAfterRelease(t *Tree, leaf node) float64 {
	lv := t.leafView(leaf)
	leaf.release()
	return lv.Key(0) // want `view lv \(borrowed by t\.leafView\) is read after its frame's release`
}

func useAfterReleaseOneBranch(t *Tree, leaf node, cond bool) float64 {
	lv := t.leafView(leaf)
	if cond {
		leaf.release()
	}
	return lv.Key(0) // want `view lv \(borrowed by t\.leafView\) is read after its frame's release`
}

func aliasUseAfterRelease(t *Tree, leaf node) float64 {
	lv := t.leafView(leaf)
	lv2 := lv
	leaf.release()
	return lv2.Key(0) // want `view lv2 \(borrowed by t\.leafView\) is read after its frame's release`
}

func copyOfDeadView(t *Tree, leaf node) LeafView {
	lv := t.leafView(leaf)
	leaf.release()
	dead := lv // want `view lv \(borrowed by t\.leafView\) is read after its frame's release`
	return dead
}

func nodeViewAfterRelease(n node) uint32 {
	v := n.view(viewMeta{})
	n.release()
	return v.child(0) // want `view v \(borrowed by n\.view\) is read after its frame's release`
}

func frameReleaseKillsView(n node) uint32 {
	v := n.view(viewMeta{})
	n.frame.Release()
	return v.child(0) // want `view v \(borrowed by n\.view\) is read after its frame's release`
}

func escapeAfterRelease(t *Tree, leaf node, visit func(LeafView) bool) {
	lv := t.leafView(leaf)
	leaf.release()
	visit(lv) // want `view lv \(borrowed by t\.leafView\) is read after its frame's release`
}

func staleLoopCarry(t *Tree, leaf node) {
	var last LeafView
	for i := 0; i < 3; i++ {
		lv := t.leafView(leaf)
		last = lv
		leaf.release()
	}
	sinkEntry(last.Key(0)) // want `view last \(borrowed by t\.leafView\) is read after its frame's release`
}

// --- cross-function (summary-driven) shapes ---------------------------

// viewOf returns a borrow of its leaf parameter: the computed summary
// records the result→parameter provenance, so callers track views created
// through this helper exactly like direct leafView calls.
func viewOf(t *Tree, leaf node) LeafView {
	return t.leafView(leaf)
}

// finish releases its lender parameter; the summary carries the release
// effect to call sites.
func finish(leaf node) { leaf.release() }

// helperBorrowClean reads the summarized borrow before the release.
func helperBorrowClean(t *Tree, leaf node) float64 {
	lv := viewOf(t, leaf)
	k := lv.Key(0)
	leaf.release()
	return k
}

// helperBorrowDead reads the summarized borrow after its lender's release:
// the view outlived the lender even though no leafView call is in sight.
func helperBorrowDead(t *Tree, leaf node) float64 {
	lv := viewOf(t, leaf)
	leaf.release()
	return lv.Key(0) // want `view lv \(borrowed by viewOf\) is read after its frame's release`
}

// helperReleaseKills: a helper whose summary releases the lender kills the
// view just like a direct release would.
func helperReleaseKills(t *Tree, leaf node) float64 {
	lv := t.leafView(leaf)
	finish(leaf)
	return lv.Key(0) // want `view lv \(borrowed by t\.leafView\) is read after its frame's release`
}

// helperReleaseOrdered: every read precedes the releasing helper. Clean.
func helperReleaseOrdered(t *Tree, leaf node) float64 {
	lv := t.leafView(leaf)
	k := lv.Key(0)
	finish(leaf)
	return k
}

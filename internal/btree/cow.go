package btree

import (
	"fmt"

	"dualcdb/internal/pagestore"
)

// Copy-on-write batches and snapshot read handles.
//
// A batch (BeginCOW … CommitCOW/AbortCOW) shadows every mutated path from
// leaf to root into fresh pages: a page reachable from a published root is
// never rewritten in place, so a reader holding that root sweeps a frozen
// tree without locks. Pages the batch allocates ("owned") are invisible
// to all published versions and are mutated in place for the rest of the
// batch; the originals they replace are "superseded" and handed to the
// pool's deferred free list at commit, tagged with the new version.
//
// A version is therefore nothing but its Meta — one root pointer and three
// counts: every page it can reach hangs off that root, and no page points
// sideways. Leaves carry no sibling links (cloning leaf P would otherwise
// have to repoint neighbours that older versions share), so a sweep moves
// from leaf to leaf through the parents on its cursor's path (cursor.go),
// and BeginCOW, CommitCOW and Handle copy nothing that grows with the tree.

// cowState is an open copy-on-write batch.
type cowState struct {
	// owned marks pages allocated by this batch: no published version can
	// reach them, so the batch mutates them in place.
	owned map[pagestore.PageID]bool
	// superseded collects original pages replaced by clones or structurally
	// removed while still reachable from a published root; the commit hands
	// them to the pool's deferred free list.
	superseded []pagestore.PageID
	// savedMeta is the version AbortCOW returns to, savedExt its root bound.
	savedMeta Meta
	savedExt  [2]float64
}

// BeginCOW opens a copy-on-write batch: until CommitCOW or AbortCOW, every
// mutation shadows shared pages into batch-owned clones instead of
// dirtying them. At most one batch may be open per tree; the caller
// serializes writers.
func (t *Tree) BeginCOW() {
	if t.cow != nil {
		panic("btree: BeginCOW with a batch already open")
	}
	t.cow = &cowState{owned: make(map[pagestore.PageID]bool), savedMeta: t.Meta(), savedExt: t.rootExt}
}

// CommitCOW closes the batch keeping its mutations and returns the
// superseded pages. The caller must publish the new root set before
// handing them to Pool.DeferFrees, so no late snapshot can pin the old
// version after its pages are queued behind it.
func (t *Tree) CommitCOW() []pagestore.PageID {
	if t.cow == nil {
		panic("btree: CommitCOW without an open batch")
	}
	s := t.cow.superseded
	t.cow = nil
	return s
}

// AbortCOW discards the batch: every batch-owned page is freed and the
// root metadata reverts to its BeginCOW value. The published tree was never
// touched, so aborting is invisible to readers. A page that fails to free is
// handed to the pool's reclamation, which retries it, and the first such
// error is returned.
func (t *Tree) AbortCOW() error {
	if t.cow == nil {
		panic("btree: AbortCOW without an open batch")
	}
	var err error
	var failed []pagestore.PageID
	for id := range t.cow.owned {
		if ferr := t.pool.FreePage(id); ferr != nil {
			failed = append(failed, id)
			if err == nil {
				err = ferr
			}
		}
	}
	// No version ever reached these pages: reclamation may free them at once.
	t.pool.DeferFrees(0, failed)
	m := t.cow.savedMeta
	t.root, t.hgt, t.size, t.pages, t.rootExt = m.Root, m.Height, m.Size, m.Pages, t.cow.savedExt
	t.pendingFree = t.pendingFree[:0]
	t.cow = nil
	return err
}

// InCOW reports whether a copy-on-write batch is open.
func (t *Tree) InCOW() bool { return t.cow != nil }

// Handle returns a read-only view of the tree frozen at root metadata m —
// the per-version tree a snapshot sweeps. It shares the pool, config and
// traversal counters with t; it must not be mutated. Its root bound is
// NoExtent: a sweep never reads the root's bound, only its children's.
func (t *Tree) Handle(m Meta) *Tree {
	return &Tree{
		pool:    t.pool,
		cfg:     t.cfg,
		root:    m.Root,
		hgt:     m.Height,
		size:    m.Size,
		pages:   m.Pages,
		rootExt: NoExtent,
		stats:   t.stats,
		leafCap: t.leafCap,
		intCap:  t.intCap,
	}
}

// writable returns a node of the open batch that is safe to mutate in
// place: n itself when no batch is open (legacy in-place mode) or when the
// batch already owns it, and otherwise a fresh clone, which the caller
// links into its (writable) parent. On success the returned node replaces
// n (whose frame is released if a clone was made); on error n is released.
func (t *Tree) writable(n node) (node, error) {
	if t.cow == nil || t.cow.owned[n.id()] {
		return n, nil
	}
	old := n.id()
	f, err := t.pool.ClonePage(old)
	if err != nil {
		n.release()
		return node{}, err
	}
	c := wrap(f)
	t.cow.owned[c.id()] = true
	t.cow.superseded = append(t.cow.superseded, old)
	n.release()
	return c, nil
}

// freeOrSupersede disposes of a page the tree no longer references:
// batch-owned pages (and every page outside a batch) free immediately,
// pages a published version may still reach are retired with the commit.
func (t *Tree) freeOrSupersede(id pagestore.PageID) error {
	if t.cow != nil {
		if !t.cow.owned[id] {
			t.cow.superseded = append(t.cow.superseded, id)
			return nil
		}
		// Owned until freed: AbortCOW frees it if this fails.
		if err := t.pool.FreePage(id); err != nil {
			return err
		}
		delete(t.cow.owned, id)
		return nil
	}
	return t.pool.FreePage(id)
}

// cowSanity is a debug helper for tests: it verifies that no batch-owned
// page appears in the superseded list.
func (t *Tree) cowSanity() error {
	if t.cow == nil {
		return nil
	}
	for _, id := range t.cow.superseded {
		if t.cow.owned[id] {
			return fmt.Errorf("btree: page %d both owned and superseded", id)
		}
	}
	return nil
}

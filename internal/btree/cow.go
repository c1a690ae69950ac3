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

// cowState is the bookkeeping of a copy-on-write batch. A tree keeps one for
// its lifetime and reuses it batch after batch: the owned set is empty and
// the superseded list has length 0 at every BeginCOW, because CommitCOW and
// AbortCOW empty both, so a commit allocates no bookkeeping once the map and
// the list have grown to a batch's size.
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
	b := t.batch
	if b == nil {
		b = &cowState{owned: make(map[pagestore.PageID]bool)}
		t.batch = b
	}
	if len(b.owned) != 0 || len(b.superseded) != 0 {
		panic("btree: BeginCOW over the bookkeeping of an unfinished batch")
	}
	b.savedMeta, b.savedExt = t.Meta(), t.rootExt
	t.cow = b
}

// ownedKeep bounds the owned set a tree keeps for its next batch. Clearing a
// map costs its capacity, not its length: on go1.24/amd64, clearing a map
// that once held 64 ids costs about what a fresh map of three does (0.1 µs),
// one that held 256 five times that and one that held 10 000 15 µs. A
// larger set — a handicap rebuild shadows the whole tree — is dropped, so
// one big batch does not tax every commit after it.
const ownedKeep = 64

// finishCOW empties the batch's bookkeeping for the next BeginCOW and closes
// the batch.
func (t *Tree) finishCOW() {
	if len(t.cow.owned) > ownedKeep {
		t.cow.owned = make(map[pagestore.PageID]bool)
	} else {
		clear(t.cow.owned)
	}
	t.cow.superseded = t.cow.superseded[:0]
	t.cow = nil
}

// CommitCOW closes the batch keeping its mutations and returns the
// superseded pages in a slice of their own. The caller must publish the new
// root set before handing them to Pool.DeferFrees, so no late snapshot can
// pin the old version after its pages are queued behind it.
func (t *Tree) CommitCOW() []pagestore.PageID { return t.CommitCOWAppend(nil) }

// CommitCOWAppend is CommitCOW appending the superseded pages to dst and
// returning the extended slice, so a writer closing many trees' batches
// gathers their pages in one buffer; the tree keeps no reference to it.
func (t *Tree) CommitCOWAppend(dst []pagestore.PageID) []pagestore.PageID {
	if t.cow == nil {
		panic("btree: CommitCOW without an open batch")
	}
	dst = append(dst, t.cow.superseded...)
	t.finishCOW()
	return dst
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
	t.finishCOW()
	return err
}

// InCOW reports whether a copy-on-write batch is open.
func (t *Tree) InCOW() bool { return t.cow != nil }

// Handle returns a read-only view of the tree frozen at root metadata m —
// the per-version tree a snapshot sweeps. It shares the pool, config and
// traversal counters with t; it must not be mutated. Its root bound is
// NoExtent: a sweep never reads the root's bound, only its children's. It
// is a value, so a version can hold all its trees' handles in one array.
func (t *Tree) Handle(m Meta) Tree {
	return Tree{
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
// n (a clone takes over n's pin); on error n is released.
func (t *Tree) writable(n node) (node, error) {
	if t.cow == nil || t.cow.owned[n.id()] {
		return n, nil
	}
	old := n.id()
	f, err := t.pool.ClonePage(n.frame)
	if err != nil {
		n.release()
		return node{}, err
	}
	c := wrap(f)
	t.cow.owned[c.id()] = true
	t.cow.superseded = append(t.cow.superseded, old)
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

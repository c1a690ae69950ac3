package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"dualcdb/internal/btree"
	"dualcdb/internal/constraint"
	"dualcdb/internal/geom"
	"dualcdb/internal/pagestore"
)

// Persistence: a 2-D dual index together with its relation can be saved
// into its own page store and reopened later — the store is then a
// self-contained constraint database file (use pagestore.OpenFileStore for
// an on-disk one).
//
// Layout: the index's first allocated page (page 1 on a dedicated store)
// is the catalog. It records the options, the slope set, the root metadata
// of every B⁺-tree and the head of a chained-page stream holding the
// serialized relation tuples. Save rewrites the catalog and the tuple
// stream; Open restores the relation (with original tuple ids) and
// reattaches the trees.

const (
	// DCDB0006: node layout version 4 (btree/node.go) — 8-byte leaf entries,
	// every site key the kernel's TOP^P/BOT^P at the site rounded to float32,
	// float32 handicap slots, and 20-byte separator records carrying each
	// child's x-extent bound. DCDB0005 files (layout 3: float64 slots,
	// 12-byte separator records, no bounds) are refused, as are DCDB0001 to
	// DCDB0004.
	catalogMagic   = "DCDB0006"
	catalogPage    = pagestore.PageID(1)
	catalogFixed   = 52 // bytes before the slope table
	maxPersistK    = 23 // every DCDB0006 reader's bound (a 1 KiB catalog fits 24)
	chainHeaderLen = 4  // next-page pointer
)

// Save writes the catalog and the relation into the index's store, whose
// page 1 the constructor reserved for the catalog.
//
// A tuple whose constraints do not define it (constraint.FromPolyhedron over
// vertices and a ray) would reopen as the whole plane under the keys of what
// it was: Save refuses the relation with geom.ErrNoHRep before it writes
// anything.
//
// Save excludes writers for its duration and runs beside readers: a version
// is its trees' root metadata and nothing else, so the catalog records the
// current one as it stands and no page a snapshot can reach is touched.
// Pages that pinned snapshots still hold back from reclamation are
// allocated in the saved file and referenced by nothing in it: they leak
// there exactly as freed pages do (OpenExistingFileStore's trade-off).
//
// The catalog is the file's one page written in place, and it is written
// last: Save writes every other dirty page first, then the catalog, then
// frees the superseded tuple chain, and only then checkpoints the store
// (Store.Checkpoint), which makes the live pages the saved set. Until the
// next Save the store holds back every saved page a commit frees, so the
// file stays the version this Save wrote however many commits follow:
// a process that stops before its next Save leaves a file Open accepts.
func (ix *Index) Save() error {
	ix.writeMu.Lock()
	defer ix.writeMu.Unlock()
	g, ok := ix.geo.(*slopeSet)
	if !ok {
		return fmt.Errorf("core: only the 2-D slope-set index can be persisted")
	}
	slopes := g.s
	if len(slopes) > maxPersistK {
		return fmt.Errorf("core: cannot persist k=%d > %d slope sets", len(slopes), maxPersistK)
	}
	// Serialize the relation.
	data, count, err := encodeRelation(ix.rel)
	if err != nil {
		return err
	}
	f, err := ix.pool.Get(ix.catalog)
	if err != nil {
		return err
	}
	defer f.Release()
	// The previous tuple chain is freed only once the catalog that replaces
	// it is flushed; until then the store's saved state is the previous one.
	if ix.tupleChain != pagestore.InvalidPage {
		old, err := walkChain(ix.pool, ix.tupleChain, nil)
		if err != nil {
			return err
		}
		ix.staleChain, ix.tupleChain, ix.dataPages = append(ix.staleChain, old...), pagestore.InvalidPage, 0
	}
	head, pages, err := writeChain(ix.pool, data)
	if err != nil {
		return err
	}
	ix.tupleChain, ix.dataPages = head, pages
	// Everything the new catalog reaches is on the device before it is.
	if err := ix.pool.Flush(); err != nil {
		return err
	}

	d := f.Data()
	for i := range d {
		d[i] = 0
	}
	copy(d[0:8], catalogMagic)
	d[8] = byte(ix.opt.Technique)
	// d[9], the flags byte, stays zero: Open refuses any flag.
	binary.LittleEndian.PutUint16(d[10:12], uint16(len(slopes)))
	// d[12:16] is unused and stays zero; Open does not read it.
	binary.LittleEndian.PutUint64(d[16:24], math.Float64bits(t1PivotX))
	binary.LittleEndian.PutUint64(d[24:32], math.Float64bits(g.outer))
	binary.LittleEndian.PutUint64(d[32:40], math.Float64bits(btree.DefaultFillFactor)) // never read
	binary.LittleEndian.PutUint32(d[40:44], uint32(head))
	binary.LittleEndian.PutUint32(d[44:48], uint32(count))
	binary.LittleEndian.PutUint32(d[48:52], uint32(ix.rel.Dim()))
	off := catalogFixed
	for _, s := range slopes {
		binary.LittleEndian.PutUint64(d[off:off+8], math.Float64bits(s))
		off += 8
	}
	for _, t := range ix.trees {
		m := t.Meta()
		binary.LittleEndian.PutUint32(d[off:off+4], uint32(m.Root))
		binary.LittleEndian.PutUint32(d[off+4:off+8], uint32(m.Height))
		binary.LittleEndian.PutUint32(d[off+8:off+12], uint32(m.Size))
		binary.LittleEndian.PutUint32(d[off+12:off+16], uint32(m.Pages))
		off += 16
	}
	f.MarkDirty()
	if err := ix.pool.Flush(); err != nil {
		return err
	}
	return ix.freeStaleChain()
}

// freeStaleChain frees the pages of superseded tuple chains and then
// checkpoints the store, releasing the saved pages freed since the last
// Save. A page that fails to free stays queued, with those after it, for
// the next Save, which checkpoints in its place.
func (ix *Index) freeStaleChain() error {
	for len(ix.staleChain) > 0 {
		if err := ix.pool.FreePage(ix.staleChain[0]); err != nil {
			return err
		}
		ix.staleChain = ix.staleChain[1:]
	}
	ix.pool.Store().Checkpoint()
	return nil
}

// ErrCatalog is returned by Open when page 1 is not a catalog this version
// writes: another format's magic — a DCDB0005 or older file, whose trees
// have another node layout — a flags byte recording a vertical tree pair,
// or a damaged field. A node of another layout under a current catalog is
// btree.ErrLayout.
var ErrCatalog = errors.New("core: bad catalog")

// catalog is the decoded catalog page.
type catalog struct {
	opt   Options
	geo   *slopeSet        // from the slope table
	head  pagestore.PageID // tuple chain
	count int              // tuples in the chain
	metas []btree.Meta     // one per tree, in Index.trees order
}

// parseCatalog decodes and validates a catalog page image: a damaged page
// is an error here, never an out-of-range index or an index over a slope
// set the constructors would have rejected.
func parseCatalog(d []byte) (catalog, error) {
	if len(d) < catalogFixed || string(d[0:8]) != catalogMagic {
		return catalog{}, fmt.Errorf("%w magic %q", ErrCatalog, d[0:min(8, len(d))])
	}
	c := catalog{
		opt: Options{
			Technique: Technique(d[8]),
			PageSize:  len(d),
		},
		head:  pagestore.PageID(binary.LittleEndian.Uint32(d[40:44])),
		count: int(binary.LittleEndian.Uint32(d[44:48])),
	}
	if dim := binary.LittleEndian.Uint32(d[48:52]); dim != 2 {
		return catalog{}, fmt.Errorf("%w: persisted dimension %d (the 2-D Open only)", ErrCatalog, dim)
	}
	if c.opt.Technique > RestrictedOnly {
		return catalog{}, fmt.Errorf("%w: unknown technique %d", ErrCatalog, d[8])
	}
	if d[9] != 0 {
		return catalog{}, fmt.Errorf("%w: flags %#x: the file holds a vertical tree pair this version does not keep; rebuild the index", ErrCatalog, d[9])
	}
	k := int(binary.LittleEndian.Uint16(d[10:12]))
	trees := 2 * k
	if k < 1 || k > maxPersistK || catalogFixed+8*k+16*trees > len(d) {
		return catalog{}, fmt.Errorf("%w: %d slopes do not fit a %d-byte page", ErrCatalog, k, len(d))
	}
	off := catalogFixed
	c.opt.Slopes = make([]float64, k)
	for i := range c.opt.Slopes {
		c.opt.Slopes[i] = math.Float64frombits(binary.LittleEndian.Uint64(d[off : off+8]))
		off += 8
	}
	if err := checkSlopes(c.opt.Slopes, c.opt.Technique); err != nil {
		return catalog{}, fmt.Errorf("%w: %w", ErrCatalog, err)
	}
	// T1's pivot and the outer strip width are fixed by S: a file that
	// records other bits planned T1 or folded its handicaps for strips this
	// index does not serve.
	c.geo = newSlopeSet(c.opt.Slopes)
	if pivot := binary.LittleEndian.Uint64(d[16:24]); pivot != math.Float64bits(t1PivotX) {
		return catalog{}, fmt.Errorf("%w: T1 pivot x = %v, want %v", ErrCatalog, math.Float64frombits(pivot), t1PivotX)
	}
	if outer := binary.LittleEndian.Uint64(d[24:32]); outer != math.Float64bits(c.geo.outer) {
		return catalog{}, fmt.Errorf("%w: outer strip half-width %v, want %v derived from S", ErrCatalog, math.Float64frombits(outer), c.geo.outer)
	}
	c.metas = make([]btree.Meta, trees)
	for i := range c.metas {
		c.metas[i] = btree.Meta{
			Root:   pagestore.PageID(binary.LittleEndian.Uint32(d[off : off+4])),
			Height: int(binary.LittleEndian.Uint32(d[off+4 : off+8])),
			Size:   int(binary.LittleEndian.Uint32(d[off+8 : off+12])),
			Pages:  int(binary.LittleEndian.Uint32(d[off+12 : off+16])),
		}
		off += 16
	}
	return c, nil
}

// Open reopens a saved database from its store: it rebuilds the relation
// (original tuple ids preserved) and reattaches the index trees. A damaged
// catalog or tuple chain is an error.
func Open(pool *pagestore.Pool) (*constraint.Relation, *Index, error) {
	f, err := pool.Get(catalogPage)
	if err != nil {
		return nil, nil, fmt.Errorf("core: read catalog: %w", err)
	}
	cat, err := parseCatalog(f.Data())
	f.Release()
	if err != nil {
		return nil, nil, err
	}

	// Rebuild the relation from the tuple chain.
	data, chainPages, err := readChain(pool, cat.head)
	if err != nil {
		return nil, nil, err
	}
	rel, err := decodeRelation(data, cat.count, 2)
	if err != nil {
		return nil, nil, fmt.Errorf("core: corrupt tuple stream: %w", err)
	}

	// Reattach the trees.
	ix := &Index{
		rel:        rel,
		opt:        cat.opt,
		dim:        rel.Dim(),
		geo:        cat.geo,
		pool:       pool,
		catalog:    catalogPage,
		tupleChain: cat.head,
		dataPages:  chainPages,
	}
	cfg := btree.Config{HandicapKinds: cat.geo.slotKinds()}
	for j, m := range cat.metas {
		t, err := btree.Restore(pool, cfg, m)
		if err != nil {
			return nil, nil, fmt.Errorf("core: restore tree %d: %w", j, err)
		}
		ix.trees = append(ix.trees, t)
	}
	// One prepare pass counts the indexed tuples — exactly the satisfiable
	// ones (Insert's invariant), none of which Insert would have refused —
	// and derives the extent tables.
	p, err := ix.prepare(rel.Freeze(), false)
	if err != nil {
		return nil, nil, fmt.Errorf("core: corrupt tuple stream: %w", err)
	}
	ix.start(p)
	return rel, ix, nil
}

// encodeRelation serializes every tuple: id, constraint count, then per
// constraint op, constant and coefficients. A tuple with no H-representation
// has nothing to serialize: geom.ErrNoHRep.
func encodeRelation(rel *constraint.Relation) ([]byte, int, error) {
	var buf []byte
	put32 := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		buf = append(buf, b[:]...)
	}
	put64 := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		buf = append(buf, b[:]...)
	}
	count := 0
	dim := rel.Dim()
	var err error
	rel.Scan(func(t *constraint.Tuple) bool {
		if !t.HasHRep() {
			err = fmt.Errorf("core: save tuple %d: %w", t.ID(), geom.ErrNoHRep)
			return false
		}
		put32(uint32(t.ID()))
		put32(uint32(t.NumConstraints()))
		for i := range t.NumConstraints() {
			h := t.Constraint(i)
			if h.Op == geom.LE {
				buf = append(buf, 0)
			} else {
				buf = append(buf, 1)
			}
			put64(h.C)
			for i := 0; i < dim; i++ {
				put64(h.A[i])
			}
		}
		count++
		return true
	})
	return buf, count, err
}

// decodeRelation reverses encodeRelation. An id past the relation's limit is
// refused (constraint.ErrIDLimit), and a constraint count the stream has no
// bytes for is refused, before anything is sized by either. The constraints
// are read into one buffer the tuples copy from.
func decodeRelation(data []byte, count, dim int) (*constraint.Relation, error) {
	rel := constraint.NewRelation(dim)
	off := 0
	var cons []geom.HalfSpace
	var coef []float64
	need := func(n int) error {
		if off+n > len(data) {
			return fmt.Errorf("truncated at byte %d", off)
		}
		return nil
	}
	for i := 0; i < count; i++ {
		if err := need(8); err != nil {
			return nil, err
		}
		id := constraint.TupleID(binary.LittleEndian.Uint32(data[off : off+4]))
		m := int(binary.LittleEndian.Uint32(data[off+4 : off+8]))
		off += 8
		if m < 0 || m > 1<<16 {
			return nil, fmt.Errorf("implausible constraint count %d", m)
		}
		if err := need(m * (1 + 8 + 8*dim)); err != nil {
			return nil, err
		}
		cons, coef = cons[:0], slices.Grow(coef[:0], m*dim)
		for j := 0; j < m; j++ {
			op := geom.LE
			if data[off] == 1 {
				op = geom.GE
			}
			off++
			c := math.Float64frombits(binary.LittleEndian.Uint64(data[off : off+8]))
			off += 8
			a := coef[j*dim : j*dim : (j+1)*dim]
			for x := 0; x < dim; x++ {
				a = append(a, math.Float64frombits(binary.LittleEndian.Uint64(data[off:off+8])))
				off += 8
			}
			cons = append(cons, geom.HalfSpace{A: a, C: c, Op: op})
		}
		t, err := constraint.NewTuple(dim, cons)
		if err != nil {
			return nil, err
		}
		if err := rel.InsertWithID(t, id); err != nil {
			return nil, err
		}
	}
	return rel, nil
}

// writeChain stores data in a linked chain of pages: each page holds a
// 4-byte next pointer followed by payload bytes. On error it frees the pages
// it allocated.
func writeChain(pool *pagestore.Pool, data []byte) (pagestore.PageID, int, error) {
	payload := pool.PageSize() - chainHeaderLen
	var ids []pagestore.PageID
	var prev *pagestore.Frame
	for off := 0; off == 0 || off < len(data); off += payload {
		f, err := pool.NewPage()
		if err != nil {
			if prev != nil {
				prev.Release()
			}
			for _, id := range ids {
				err = errors.Join(err, pool.FreePage(id))
			}
			return pagestore.InvalidPage, 0, err
		}
		ids = append(ids, f.ID())
		if prev != nil {
			binary.LittleEndian.PutUint32(prev.Data()[0:4], uint32(f.ID()))
			prev.MarkDirty()
			prev.Release()
		}
		end := off + payload
		if end > len(data) {
			end = len(data)
		}
		if off <= end {
			copy(f.Data()[chainHeaderLen:], data[off:end])
		}
		f.MarkDirty()
		prev = f
	}
	binary.LittleEndian.PutUint32(prev.Data()[0:4], 0)
	prev.MarkDirty()
	prev.Release()
	return ids[0], len(ids), nil
}

// walkChain visits the payload of every page of the chain starting at
// head, in order, and returns the page ids. A chain longer than the store's
// live page count can only be a cyclic next pointer in a damaged file, so
// the walk stops there with an error instead of spinning.
func walkChain(pool *pagestore.Pool, head pagestore.PageID, visit func(payload []byte)) ([]pagestore.PageID, error) {
	limit := pool.Store().NumAllocated()
	var ids []pagestore.PageID
	for id := head; id != pagestore.InvalidPage; {
		if len(ids) >= limit {
			return nil, fmt.Errorf("core: corrupt page chain at %d: longer than the store's %d live pages", head, limit)
		}
		f, err := pool.Get(id)
		if err != nil {
			return nil, err
		}
		next := pagestore.PageID(binary.LittleEndian.Uint32(f.Data()[0:4]))
		if visit != nil {
			visit(f.Data()[chainHeaderLen:])
		}
		f.Release()
		ids = append(ids, id)
		id = next
	}
	return ids, nil
}

// readChain concatenates a page chain's payload, returning the data and
// the number of chain pages.
func readChain(pool *pagestore.Pool, head pagestore.PageID) ([]byte, int, error) {
	var out []byte
	ids, err := walkChain(pool, head, func(payload []byte) { out = append(out, payload...) })
	if err != nil {
		return nil, 0, err
	}
	return out, len(ids), nil
}

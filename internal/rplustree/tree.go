package rplustree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"dualcdb/internal/pagestore"
)

// Item is one indexed object: its MBR and tuple id.
type Item struct {
	R   Rect
	TID uint32
}

// Page layout. Header (16 bytes):
//
//	[0]     node type (1 = leaf, 2 = internal)
//	[1:3]   entry count (uint16)
//	[4:8]   overflow-chain page id (leaves only)
//	[8:16]  reserved
//
// Entries (36 bytes each): MinX, MinY, MaxX, MaxY (float64) + id (uint32) —
// a child page id in internal nodes, a tuple id in leaves.
const (
	headerSize   = 16
	entrySize    = 36
	typeLeaf     = 1
	typeInternal = 2
)

// Tree is a paged R⁺-tree. Node regions are disjoint per level and the
// root's region is the whole plane, so no insertion ever falls outside the
// structure.
type Tree struct {
	pool  *pagestore.Pool
	root  pagestore.PageID
	size  int // object references, counting duplicates
	pages int
	cap   int
	fill  float64
	// dupBound caps one partitioning level's reference growth (1.5 = 50 %
	// duplication); below it the build prefers chaining to subdividing.
	dupBound float64
}

// SetDuplicationBound overrides the per-level duplication bound (default
// 1.5). Values ≤ 1 force pure chaining; large values approximate the
// original R⁺-tree's unbounded clipping. Call before loading data.
func (t *Tree) SetDuplicationBound(b float64) {
	if b > 0 {
		t.dupBound = b
	}
}

// ErrNoValidCut is returned when an internal node cannot be split by any
// guillotine cut; it indicates a bug, since the build and split rules only
// ever produce guillotine partitions.
var ErrNoValidCut = errors.New("rplustree: no valid guillotine cut")

// New creates an empty R⁺-tree (a single empty leaf covering the plane).
func New(pool *pagestore.Pool, fill float64) (*Tree, error) {
	if fill <= 0 || fill > 1 {
		fill = 0.9
	}
	t := &Tree{pool: pool, fill: fill, dupBound: 1.5}
	t.cap = (pool.PageSize() - headerSize) / entrySize
	if t.cap < 4 {
		return nil, fmt.Errorf("rplustree: page size %d too small", pool.PageSize())
	}
	f, err := pool.NewPage()
	if err != nil {
		return nil, err
	}
	initNode(f, typeLeaf)
	t.root = f.ID()
	t.pages = 1
	f.Release()
	return t, nil
}

func initNode(f *pagestore.Frame, typ byte) {
	f.Data()[0] = typ
	binary.LittleEndian.PutUint16(f.Data()[1:3], 0)
	binary.LittleEndian.PutUint32(f.Data()[4:8], 0)
	f.MarkDirty()
}

func nodeType(f *pagestore.Frame) byte { return f.Data()[0] }
func nodeCount(f *pagestore.Frame) int { return int(binary.LittleEndian.Uint16(f.Data()[1:3])) }
func setNodeCount(f *pagestore.Frame, c int) {
	binary.LittleEndian.PutUint16(f.Data()[1:3], uint16(c))
	f.MarkDirty()
}
func overflow(f *pagestore.Frame) pagestore.PageID {
	return pagestore.PageID(binary.LittleEndian.Uint32(f.Data()[4:8]))
}
func setOverflow(f *pagestore.Frame, p pagestore.PageID) {
	binary.LittleEndian.PutUint32(f.Data()[4:8], uint32(p))
	f.MarkDirty()
}

func getEntry(f *pagestore.Frame, i int) (Rect, uint32) {
	off := headerSize + i*entrySize
	d := f.Data()
	r := Rect{
		MinX: math.Float64frombits(binary.LittleEndian.Uint64(d[off : off+8])),
		MinY: math.Float64frombits(binary.LittleEndian.Uint64(d[off+8 : off+16])),
		MaxX: math.Float64frombits(binary.LittleEndian.Uint64(d[off+16 : off+24])),
		MaxY: math.Float64frombits(binary.LittleEndian.Uint64(d[off+24 : off+32])),
	}
	return r, binary.LittleEndian.Uint32(d[off+32 : off+36])
}

func setEntry(f *pagestore.Frame, i int, r Rect, id uint32) {
	off := headerSize + i*entrySize
	d := f.Data()
	binary.LittleEndian.PutUint64(d[off:off+8], math.Float64bits(r.MinX))
	binary.LittleEndian.PutUint64(d[off+8:off+16], math.Float64bits(r.MinY))
	binary.LittleEndian.PutUint64(d[off+16:off+24], math.Float64bits(r.MaxX))
	binary.LittleEndian.PutUint64(d[off+24:off+32], math.Float64bits(r.MaxY))
	binary.LittleEndian.PutUint32(d[off+32:off+36], id)
	f.MarkDirty()
}

func appendEntry(f *pagestore.Frame, r Rect, id uint32) {
	c := nodeCount(f)
	setEntry(f, c, r, id)
	setNodeCount(f, c+1)
}

func removeEntryAt(f *pagestore.Frame, i int) {
	c := nodeCount(f)
	d := f.Data()
	copy(d[headerSize+i*entrySize:headerSize+(c-1)*entrySize],
		d[headerSize+(i+1)*entrySize:headerSize+c*entrySize])
	setNodeCount(f, c-1)
	f.MarkDirty()
}

// Size returns the number of stored object references (duplicates count).
func (t *Tree) Size() int { return t.size }

// Pages returns the number of pages the tree occupies (Figure 10 metric).
func (t *Tree) Pages() int { return t.pages }

// Capacity returns the per-node entry capacity.
func (t *Tree) Capacity() int { return t.cap }

// --- Bulk build ---

// Bulk builds an R⁺-tree over the items by recursive quantile slab
// partitioning: each internal node slices its region along one axis into
// disjoint slabs; items straddling a cut are assigned to every slab they
// intersect (the R⁺-tree duplication rule).
func Bulk(pool *pagestore.Pool, items []Item, fill float64) (*Tree, error) {
	return BulkBounded(pool, items, fill, 0)
}

// BulkBounded is Bulk with an explicit per-level duplication bound
// (0 keeps the default of 1.5).
func BulkBounded(pool *pagestore.Pool, items []Item, fill, dupBound float64) (*Tree, error) {
	t, err := New(pool, fill)
	if err != nil {
		return nil, err
	}
	t.SetDuplicationBound(dupBound)
	for _, it := range items {
		if !it.R.Valid() || !it.R.Bounded() {
			return nil, fmt.Errorf("rplustree: item rectangle %+v must be valid and bounded", it.R)
		}
	}
	if len(items) == 0 {
		return t, nil
	}
	// Free the placeholder root; the build allocates its own pages.
	if err := t.pool.FreePage(t.root); err != nil {
		return nil, err
	}
	t.pages--
	root, err := t.buildGrid(items)
	if err != nil {
		return nil, err
	}
	t.root = root
	return t, nil
}

// buildGrid bulk-loads via a duplication-aware grid: the resolution is
// chosen once from the objects' extents so that each axis's expected
// duplication stays within the bound, then the grid cells (x-quantile
// columns × per-column y-quantile cells) are packed into internal levels
// of up to `cap` children. Cells that still exceed a page — which happens
// exactly when objects are large relative to the duplication-limited cell
// size — become overflow chains: the R⁺-tree's documented degradation on
// large objects (Figure 9).
func (t *Tree) buildGrid(items []Item) (pagestore.PageID, error) {
	// Budget ~40 % headroom for duplicated references so cells rarely
	// spill into overflow chains when objects are small.
	targetCells := (len(items)*14/10 + t.leafTarget() - 1) / t.leafTarget()

	// Average object extent and the data span per axis.
	var ex, ey float64
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, it := range items {
		ex += it.R.MaxX - it.R.MinX
		ey += it.R.MaxY - it.R.MinY
		cx, cy := (it.R.MinX+it.R.MaxX)/2, (it.R.MinY+it.R.MaxY)/2
		minX, maxX = math.Min(minX, cx), math.Max(maxX, cx)
		minY, maxY = math.Min(minY, cy), math.Max(maxY, cy)
	}
	n := float64(len(items))
	ex, ey = ex/n, ey/n
	spanX, spanY := maxX-minX, maxY-minY

	// Per-axis resolution cap: g cuts of spacing span/g are each crossed by
	// ≈ extent·g/span of the objects, so keeping g ≤ (bound−1)·span/extent
	// bounds the axis's duplication factor by `bound`.
	gMax := func(span, extent float64) int {
		if extent <= 0 || span <= 0 {
			return t.cap
		}
		g := int((t.dupBound - 1) * span / extent)
		if g < 1 {
			g = 1
		}
		return g
	}
	side := int(math.Ceil(math.Sqrt(float64(targetCells))))
	if side < 1 {
		side = 1
	}
	gx := side
	if m := gMax(spanX, ex); gx > m {
		gx = m
	}
	gy := (targetCells + gx - 1) / gx
	if m := gMax(spanY, ey); gy > m {
		gy = m
	}
	if gy < 1 {
		gy = 1
	}

	// Columns by x-quantiles of centers, then cells by y-quantiles within
	// each column.
	columns, colRegions := sliceSlabs(items, WorldRect(), 0, gx)
	if columns == nil {
		columns, colRegions = [][]Item{items}, []Rect{WorldRect()}
	}
	var colChildren []builtChild
	for ci := range columns {
		cells, cellRegions := sliceSlabs(columns[ci], colRegions[ci], 1, gy)
		if cells == nil {
			cells, cellRegions = [][]Item{columns[ci]}, []Rect{colRegions[ci]}
		}
		var leaves []builtChild
		for li := range cells {
			page, err := t.writeLeafChain(cells[li])
			if err != nil {
				return 0, err
			}
			leaves = append(leaves, builtChild{region: cellRegions[li], page: page})
		}
		page, err := t.packChildren(leaves, colRegions[ci])
		if err != nil {
			return 0, err
		}
		colChildren = append(colChildren, builtChild{region: colRegions[ci], page: page})
	}
	return t.packChildren(colChildren, WorldRect())
}

// builtChild is one packed subtree: its region and root page.
type builtChild struct {
	region Rect
	page   pagestore.PageID
}

// packChildren groups children (which tile `region` in order) into internal
// nodes of at most cap entries, adding levels until one root remains. A
// single child is returned as-is.
func (t *Tree) packChildren(children []builtChild, region Rect) (pagestore.PageID, error) {
	if len(children) == 1 {
		return children[0].page, nil
	}
	for len(children) > 1 {
		var up []builtChild
		for i := 0; i < len(children); i += t.cap {
			end := i + t.cap
			if end > len(children) {
				end = len(children)
			}
			group := children[i:end]
			if len(group) == 1 {
				up = append(up, group[0])
				continue
			}
			f, err := t.pool.NewPage()
			if err != nil {
				return 0, err
			}
			initNode(f, typeInternal)
			t.pages++
			groupRegion := group[0].region
			for _, ch := range group {
				appendEntry(f, ch.region, uint32(ch.page))
				groupRegion = groupRegion.Union(ch.region)
			}
			up = append(up, builtChild{region: groupRegion, page: f.ID()})
			f.Release()
		}
		children = up
	}
	return children[0].page, nil
}

func (t *Tree) leafTarget() int {
	n := int(float64(t.cap) * t.fill)
	if n < 1 {
		n = 1
	}
	return n
}

// sliceSlabs cuts region into at most k slabs at center quantiles along the
// axis, assigning every item to each slab it intersects. Cuts that collapse
// (equal quantiles) are skipped, so fewer than k slabs may result.
func sliceSlabs(items []Item, region Rect, axis, k int) ([][]Item, []Rect) {
	centers := make([]float64, len(items))
	for i, it := range items {
		if axis == 0 {
			centers[i] = (it.R.MinX + it.R.MaxX) / 2
		} else {
			centers[i] = (it.R.MinY + it.R.MaxY) / 2
		}
	}
	sort.Float64s(centers)
	var cuts []float64
	for j := 1; j < k; j++ {
		c := centers[j*len(centers)/k]
		if len(cuts) == 0 || c > cuts[len(cuts)-1] {
			cuts = append(cuts, c)
		}
	}
	if len(cuts) == 0 {
		return nil, nil
	}
	regions := make([]Rect, 0, len(cuts)+1)
	cur := region
	for _, c := range cuts {
		regions = append(regions, cur.cutLeft(axis, c))
		cur = cur.cutRight(axis, c)
	}
	regions = append(regions, cur)
	slabs := make([][]Item, len(regions))
	for _, it := range items {
		for i, r := range regions {
			if r.Intersects(it.R) {
				slabs[i] = append(slabs[i], it)
			}
		}
	}
	// Drop empty slabs (possible when duplicated geometry clusters).
	outS, outR := slabs[:0], regions[:0]
	for i := range slabs {
		if len(slabs[i]) > 0 {
			outS = append(outS, slabs[i])
			outR = append(outR, regions[i])
		}
	}
	return outS, outR
}

// writeLeafChain stores the items in a leaf, chaining overflow pages when
// they exceed the page capacity.
func (t *Tree) writeLeafChain(items []Item) (pagestore.PageID, error) {
	f, err := t.pool.NewPage()
	if err != nil {
		return 0, err
	}
	initNode(f, typeLeaf)
	t.pages++
	first := f.ID()
	for i, it := range items {
		if nodeCount(f) == t.cap {
			nf, err := t.pool.NewPage()
			if err != nil {
				f.Release()
				return 0, err
			}
			initNode(nf, typeLeaf)
			t.pages++
			setOverflow(f, nf.ID())
			f.Release()
			f = nf
		}
		appendEntry(f, it.R, it.TID)
		t.size++
		_ = i
	}
	f.Release()
	return first, nil
}

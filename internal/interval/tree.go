// Package interval implements a paged, static interval tree — the
// "1-dimensional interval management" structure the paper's footnote 6
// points to as an alternative realization of the restricted ALL/EXIST
// problem: under the dual transform every tuple becomes, at a fixed slope
// a_i, the interval [BOT^P(a_i), TOP^P(a_i)], and a query line with slope
// a_i stabs exactly the tuples it intersects.
//
// The structure is the classical endpoint-median interval tree laid out on
// pages: each node stores its median and two chained lists of the
// intervals crossing it — one sorted by ascending low endpoint, one by
// descending high endpoint — so a stabbing query reads only the list
// prefixes it reports, O(log n + t/B) pages. Intervals may have infinite
// endpoints (unbounded tuples).
package interval

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"dualcdb/internal/pagestore"
)

// Interval is one stored interval with its tuple id.
type Interval struct {
	Lo, Hi float64
	TID    uint32
}

// Valid reports Lo ≤ Hi.
func (iv Interval) Valid() bool { return iv.Lo <= iv.Hi && !math.IsNaN(iv.Lo) && !math.IsNaN(iv.Hi) }

// Contains reports whether x stabs the closed interval.
func (iv Interval) Contains(x float64) bool { return iv.Lo <= x && x <= iv.Hi }

// Page layout.
//
// Node page (type 1):
//
//	[0]      type
//	[1:9]    median (float64)
//	[9:13]   left child page
//	[13:17]  right child page
//	[17:21]  loList head page (crossing intervals by ascending Lo)
//	[21:25]  hiList head page (crossing intervals by descending Hi)
//
// List page (type 2):
//
//	[0]      type
//	[1:3]    count
//	[4:8]    next page
//	[8:]     entries: Lo (8), Hi (8), TID (4) = 20 bytes
const (
	typeNode     = 1
	typeList     = 2
	listHeader   = 8
	ivEntrySize  = 20
	nodeMinPages = 1
)

// Tree is a paged static interval tree.
type Tree struct {
	pool  *pagestore.Pool
	root  pagestore.PageID
	size  int
	pages int
	cap   int // list entries per page
}

// Build constructs the tree over the given intervals.
func Build(pool *pagestore.Pool, ivs []Interval) (*Tree, error) {
	t := &Tree{pool: pool}
	t.cap = (pool.PageSize() - listHeader) / ivEntrySize
	if t.cap < 2 {
		return nil, fmt.Errorf("interval: page size %d too small", pool.PageSize())
	}
	for _, iv := range ivs {
		if !iv.Valid() {
			return nil, fmt.Errorf("interval: invalid interval %+v", iv)
		}
	}
	work := append([]Interval(nil), ivs...)
	root, err := t.build(work)
	if err != nil {
		return nil, err
	}
	t.root = root
	t.size = len(ivs)
	return t, nil
}

// Size returns the number of stored intervals.
func (t *Tree) Size() int { return t.size }

// Pages returns the number of pages the tree occupies.
func (t *Tree) Pages() int { return t.pages }

// build recursively writes the subtree for ivs and returns its node page
// (InvalidPage for an empty set).
func (t *Tree) build(ivs []Interval) (pagestore.PageID, error) {
	if len(ivs) == 0 {
		return pagestore.InvalidPage, nil
	}
	med := medianEndpoint(ivs)
	var left, right, cross []Interval
	for _, iv := range ivs {
		switch {
		case iv.Hi < med:
			left = append(left, iv)
		case iv.Lo > med:
			right = append(right, iv)
		default:
			cross = append(cross, iv)
		}
	}
	// Degenerate guard: if nothing crosses and one side got everything,
	// split arbitrarily by count to bound the depth (can happen only with
	// pathological float medians).
	if len(cross) == 0 && (len(left) == len(ivs) || len(right) == len(ivs)) {
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].Lo < ivs[j].Lo })
		half := len(ivs) / 2
		cross = ivs[half : half+1]
		left = ivs[:half]
		right = ivs[half+1:]
	}

	byLo := append([]Interval(nil), cross...)
	sort.Slice(byLo, func(i, j int) bool { return byLo[i].Lo < byLo[j].Lo })
	byHi := append([]Interval(nil), cross...)
	sort.Slice(byHi, func(i, j int) bool { return byHi[i].Hi > byHi[j].Hi })

	loHead, err := t.writeList(byLo)
	if err != nil {
		return pagestore.InvalidPage, err
	}
	hiHead, err := t.writeList(byHi)
	if err != nil {
		return pagestore.InvalidPage, err
	}
	leftPage, err := t.build(left)
	if err != nil {
		return pagestore.InvalidPage, err
	}
	rightPage, err := t.build(right)
	if err != nil {
		return pagestore.InvalidPage, err
	}

	f, err := t.pool.NewPage()
	if err != nil {
		return pagestore.InvalidPage, err
	}
	t.pages++
	d := f.Data()
	d[0] = typeNode
	binary.LittleEndian.PutUint64(d[1:9], math.Float64bits(med))
	binary.LittleEndian.PutUint32(d[9:13], uint32(leftPage))
	binary.LittleEndian.PutUint32(d[13:17], uint32(rightPage))
	binary.LittleEndian.PutUint32(d[17:21], uint32(loHead))
	binary.LittleEndian.PutUint32(d[21:25], uint32(hiHead))
	f.MarkDirty()
	id := f.ID()
	f.Release()
	return id, nil
}

// medianEndpoint returns the median of all finite endpoints (falling back
// to 0 when every endpoint is infinite).
func medianEndpoint(ivs []Interval) float64 {
	pts := make([]float64, 0, 2*len(ivs))
	for _, iv := range ivs {
		if !math.IsInf(iv.Lo, 0) {
			pts = append(pts, iv.Lo)
		}
		if !math.IsInf(iv.Hi, 0) {
			pts = append(pts, iv.Hi)
		}
	}
	if len(pts) == 0 {
		return 0
	}
	sort.Float64s(pts)
	return pts[len(pts)/2]
}

// writeList stores the intervals in a chain of list pages.
func (t *Tree) writeList(ivs []Interval) (pagestore.PageID, error) {
	if len(ivs) == 0 {
		return pagestore.InvalidPage, nil
	}
	var head pagestore.PageID
	var prev *pagestore.Frame
	for off := 0; off < len(ivs); off += t.cap {
		f, err := t.pool.NewPage()
		if err != nil {
			return pagestore.InvalidPage, err
		}
		t.pages++
		d := f.Data()
		d[0] = typeList
		end := off + t.cap
		if end > len(ivs) {
			end = len(ivs)
		}
		binary.LittleEndian.PutUint16(d[1:3], uint16(end-off))
		for i := off; i < end; i++ {
			o := listHeader + (i-off)*ivEntrySize
			binary.LittleEndian.PutUint64(d[o:o+8], math.Float64bits(ivs[i].Lo))
			binary.LittleEndian.PutUint64(d[o+8:o+16], math.Float64bits(ivs[i].Hi))
			binary.LittleEndian.PutUint32(d[o+16:o+20], ivs[i].TID)
		}
		f.MarkDirty()
		if head == pagestore.InvalidPage {
			head = f.ID()
		}
		if prev != nil {
			binary.LittleEndian.PutUint32(prev.Data()[4:8], uint32(f.ID()))
			prev.MarkDirty()
			prev.Release()
		}
		prev = f
	}
	binary.LittleEndian.PutUint32(prev.Data()[4:8], 0)
	prev.MarkDirty()
	prev.Release()
	return head, nil
}

// Stab reports every interval containing x, in arbitrary order. It returns
// the number of pages visited.
func (t *Tree) Stab(x float64, emit func(Interval)) (int, error) {
	visited := 0
	id := t.root
	for id != pagestore.InvalidPage {
		f, err := t.pool.Get(id)
		if err != nil {
			return visited, err
		}
		visited++
		d := f.Data()
		if d[0] != typeNode {
			f.Release()
			return visited, fmt.Errorf("interval: page %d is not a node", id)
		}
		med := math.Float64frombits(binary.LittleEndian.Uint64(d[1:9]))
		left := pagestore.PageID(binary.LittleEndian.Uint32(d[9:13]))
		right := pagestore.PageID(binary.LittleEndian.Uint32(d[13:17]))
		loHead := pagestore.PageID(binary.LittleEndian.Uint32(d[17:21]))
		hiHead := pagestore.PageID(binary.LittleEndian.Uint32(d[21:25]))
		f.Release()

		if x <= med {
			// Crossing intervals contain x iff Lo ≤ x; the loList prefix.
			v, err := t.scanList(loHead, func(iv Interval) bool {
				if iv.Lo > x {
					return false
				}
				emit(iv)
				return true
			})
			visited += v
			if err != nil {
				return visited, err
			}
			if x == med { // med is a stored endpoint; only an exact hit makes the left subtree redundant
				id = pagestore.InvalidPage
			} else {
				id = left
			}
		} else {
			v, err := t.scanList(hiHead, func(iv Interval) bool {
				if iv.Hi < x {
					return false
				}
				emit(iv)
				return true
			})
			visited += v
			if err != nil {
				return visited, err
			}
			id = right
		}
	}
	return visited, nil
}

// scanList walks a list chain calling fn until it returns false.
func (t *Tree) scanList(head pagestore.PageID, fn func(Interval) bool) (int, error) {
	visited := 0
	for id := head; id != pagestore.InvalidPage; {
		f, err := t.pool.Get(id)
		if err != nil {
			return visited, err
		}
		visited++
		d := f.Data()
		count := int(binary.LittleEndian.Uint16(d[1:3]))
		next := pagestore.PageID(binary.LittleEndian.Uint32(d[4:8]))
		for i := 0; i < count; i++ {
			o := listHeader + i*ivEntrySize
			iv := Interval{
				Lo:  math.Float64frombits(binary.LittleEndian.Uint64(d[o : o+8])),
				Hi:  math.Float64frombits(binary.LittleEndian.Uint64(d[o+8 : o+16])),
				TID: binary.LittleEndian.Uint32(d[o+16 : o+20]),
			}
			if !fn(iv) {
				f.Release()
				return visited, nil
			}
		}
		f.Release()
		id = next
	}
	return visited, nil
}

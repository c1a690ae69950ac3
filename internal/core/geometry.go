package core

import (
	"fmt"
	"math"
	"sort"

	"dualcdb/internal/btree"
	"dualcdb/internal/constraint"
	"dualcdb/internal/geom"
)

// slopeSpace is the geometry of the predefined set S the engine is built
// over: S as sites in slope space E^{d−1}, each owning a cell — the region
// of query slopes it approximates with T2 handicaps (Section 4.3 in E²,
// Section 4.4 in E^d). The engine (trees, commits, versions, sweeps,
// refinement) is dimension-blind; these answers are all it asks.
//
// Two geometries exist. slopeSet is the paper's 2-D construction: cells are
// the strips around each slope, split into a prev and a next half so every
// leaf carries four handicaps with exact strip extrema. siteSet is the
// E^d construction: cells are clamped Voronoi cells with one low/high pair
// over the whole cell. A strip is the Voronoi cell of a site in E¹, so the
// first is the second specialised — with the tighter half-strip bounds that
// E²'s one-dimensional slope space affords.
type slopeSpace interface {
	// sites is |S|; site i owns the tree pair up[i]/down[i].
	sites() int
	// site returns site i's slope vector (length d−1, not to be modified).
	site(i int) []float64
	// slotKinds lists the handicap slots every leaf of every tree carries.
	slotKinds() []btree.SlotKind
	// routes returns, per handicap slot, the key by which t's value at site
	// i is routed to a leaf of the up and of the down tree: a bound on
	// TOP^P resp. BOT^P over the part of the cell the slot covers.
	routes(t *constraint.Tuple, i int) (up, down [numSlots]float64)
	// route maps a query slope to the site that serves it.
	route(slope []float64, sweepsUp bool) (routing, error)
}

// keys returns the satisfiable tuple t's tree keys at site i: TOP^P and
// BOT^P there, by the very kernel Query.Matches runs. At a query slope that
// equals the site a stored key is the predicate's operand, bit for bit
// (Theorem 3.1; DESIGN.md §19).
func (ix *Index) keys(t *constraint.Tuple, i int) (top, bot float64) {
	s := ix.geo.site(i)
	top, _ = t.Top(s) // satisfiable: the cached extension has no error
	bot, _ = t.Bot(s)
	return top, bot
}

// routing is where and how a query slope is served.
type routing struct {
	site int
	// onSite: the slope equals the site, bit for bit — the site's keys were
	// computed at this very slope and are the predicate's operands (Section
	// 3's restricted path). A slope merely within Eps of a site is not on it.
	onSite bool
	inCell bool // the slope lies in the site's cell: handicaps bound T2's second sweep
	slot   int  // handicap slot bounding T2's second sweep
	// shift is the query slope minus the site's, in E² — what keyRule
	// brackets the surface value at the query slope by; unset for d > 2.
	shift float64
}

// Handicap slots of the slope geometry (Section 4.3: "each leaf node in
// B_i^up and B_i^down is extended with four handicap values").
//
// For B^up (keys TOP^P(a_i)):
//
//	slotLowPrev/slotLowNext  bound the downward second sweep of
//	                         EXIST(q(≥)) queries approximated from the
//	                         left/right neighbour strip (min of TOP(a_i)
//	                         over tuples routed by the strip max of TOP);
//	slotHighPrev/slotHighNext bound the upward second sweep of ALL(q(≤))
//	                         queries (max of TOP(a_i) over tuples routed
//	                         by the strip min of TOP).
//
// For B^down (keys BOT^P(a_i)) the same four slots serve ALL(q(≥)) (low
// slots, routed by strip max of BOT) and EXIST(q(≤)) (high slots, routed
// by strip min of BOT).
const (
	slotLowPrev = iota
	slotLowNext
	slotHighPrev
	slotHighNext
	numSlots
)

// Handicap slots of the site geometry: one pair over the whole cell.
const (
	slotCellLow  = 0 // MinSlot: min surface value at the site over tuples routed by the cell max
	slotCellHigh = 1 // MaxSlot: max surface value at the site over tuples routed by the cell min
)

var (
	stripSlotKinds = []btree.SlotKind{btree.MinSlot, btree.MinSlot, btree.MaxSlot, btree.MaxSlot}
	cellSlotKinds  = []btree.SlotKind{btree.MinSlot, btree.MaxSlot}
)

// slopeSet is the 2-D geometry: sorted slopes, strips as cells.
type slopeSet struct {
	s []float64
	// outer is the half-width of the two outermost strips, derived from s
	// alone (newSlopeSet). T2 query slopes beyond them have no handicap to
	// stop at: path t2(outside).
	outer float64
}

// newSlopeSet is the geometry of the sorted slope set s. The outer strips
// are half the largest gap in S wide, or 1 when |S| = 1; the catalog
// records the width and Open refuses a file whose width is not this one.
func newSlopeSet(s []float64) *slopeSet {
	outer := 1.0
	if len(s) >= 2 {
		maxGap := 0.0
		for i := 1; i < len(s); i++ {
			if g := s[i] - s[i-1]; g > maxGap {
				maxGap = g
			}
		}
		outer = maxGap / 2
	}
	return &slopeSet{s: s, outer: outer}
}

func (g *slopeSet) sites() int                  { return len(g.s) }
func (g *slopeSet) site(i int) []float64        { return g.s[i : i+1 : i+1] }
func (g *slopeSet) slotKinds() []btree.SlotKind { return stripSlotKinds }

// stripBounds returns the left and right strip limits of slope i:
// [leftLo, a_i] toward the previous slope and [a_i, rightHi] toward the
// next one. The outermost strips extend by the outer half-width.
func (g *slopeSet) stripBounds(i int) (leftLo, rightHi float64) {
	a := g.s[i]
	if i > 0 {
		leftLo = (g.s[i-1] + a) / 2
	} else {
		leftLo = a - g.outer
	}
	if i < len(g.s)-1 {
		rightHi = (a + g.s[i+1]) / 2
	} else {
		rightHi = a + g.outer
	}
	return leftLo, rightHi
}

// routes are the half-strip extrema of the tuple's surfaces (DESIGN.md §4.3),
// from the generator kernel the keys come from: low slots route by the strip
// max, high slots by the strip min. The max of convex TOP (the min of concave
// BOT) is the kernel's value at a strip end, bit for bit; the other extremum
// is the kernel's at an end or at a breakpoint inside (DESIGN.md §19).
func (g *slopeSet) routes(t *constraint.Tuple, i int) (up, down [numSlots]float64) {
	leftLo, rightHi := g.stripBounds(i)
	top, bot, _ := t.StripExtrema(leftLo, g.s[i], rightHi) // satisfiable: the cached extension has no error
	return halfStripSlots(top), halfStripSlots(bot)
}

// halfStripSlots lays a surface's half-strip extrema out in slot order.
func halfStripSlots(e geom.HalfStrips) [numSlots]float64 {
	return [numSlots]float64{
		slotLowPrev:  e.MaxPrev,
		slotLowNext:  e.MaxNext,
		slotHighPrev: e.MinPrev,
		slotHighNext: e.MinNext,
	}
}

// nearest returns the index of the S-member closest to a (ties break
// toward the lower slope).
func (g *slopeSet) nearest(a float64) int {
	i := sort.SearchFloat64s(g.s, a)
	if i == len(g.s) || (i > 0 && a-g.s[i-1] <= g.s[i]-a) {
		i--
	}
	return i
}

func (g *slopeSet) route(slope []float64, sweepsUp bool) (routing, error) {
	a := slope[0]
	i := g.nearest(a)
	leftLo, rightHi := g.stripBounds(i)
	onSite := a == g.s[i] // exact on purpose: only then were the site's keys computed at this slope
	r := routing{site: i, onSite: onSite, inCell: a >= leftLo && a <= rightHi, slot: slotHighPrev, shift: a - g.s[i]}
	if sweepsUp {
		r.slot = slotLowPrev
	}
	if a >= g.s[i] {
		r.slot++ // the next-side half strip
	}
	return r, nil
}

// siteSet is the d-dimensional geometry: sites in E^{d−1}, clamped Voronoi
// cells.
//
// Design note (DESIGN.md §4.9): instead of one handicap per Voronoi edge
// (4d per leaf), each leaf carries one low/high pair per tree computed
// over the site's whole cell. That is the edge-wise scheme's conservative
// envelope: strictly sound, marginally more second-sweep I/O, and it keeps
// the leaf layout independent of the cell's edge count. Cells are clamped
// to a slope-space box; query slopes outside every cell are answered by an
// exhaustive scan (the structure has no covering app-query construction in
// E^d without the paper's "d searches" machinery, whose covering sets are
// only sketched).
type siteSet struct {
	s     []geom.Point
	cells []geom.Polyhedron
}

func (g *siteSet) sites() int                  { return len(g.s) }
func (g *siteSet) site(i int) []float64        { return g.s[i] }
func (g *siteSet) slotKinds() []btree.SlotKind { return cellSlotKinds }

func (g *siteSet) routes(t *constraint.Tuple, i int) (up, down [numSlots]float64) {
	// B^up: EXIST(≥) second sweeps are bounded via the cell max of TOP;
	// ALL(≤) via (a lower bound of) the cell min — a lower bound routes to
	// an earlier leaf, which the first (downward) sweep still visits.
	up[slotCellLow], up[slotCellHigh] = cellTopExtrema(t, g.cells[i])
	// B^down: EXIST(≤) via the cell min of BOT, ALL(≥) via (an upper bound
	// of) the cell max.
	down[slotCellHigh], down[slotCellLow] = cellBotExtrema(t, g.cells[i])
	return up, down
}

func (g *siteSet) route(slope []float64, sweepsUp bool) (routing, error) {
	p := geom.Point(slope)
	best, bestDist := -1, math.Inf(1)
	for i, s := range g.s {
		if d := s.Dist(p); d < bestDist {
			best, bestDist = i, d
		}
	}
	r := routing{site: best, onSite: bestDist == 0, slot: slotCellHigh}
	if sweepsUp {
		r.slot = slotCellLow
	}
	if len(slope) == 1 {
		r.shift = slope[0] - g.s[best][0]
	}
	var err error
	if !r.onSite {
		r.inCell, err = g.cells[best].Contains(p)
	}
	return r, err
}

// cellTopExtrema returns the exact maximum and a sound lower bound of the
// minimum of TOP^P over the cell. TOP is convex over slope space, so its
// max over the cell is attained at a cell vertex. For the min, TOP(b) =
// max_v g_v(b) ≥ g_v(b) for every tuple vertex v, so
// max_v (min over cell vertices of g_v) is a valid lower bound (rays only
// raise TOP, keeping the bound valid).
func cellTopExtrema(t *constraint.Tuple, cell geom.Polyhedron) (maxTop, minTopLB float64) {
	g := t.Generators()
	maxTop = math.Inf(-1)
	for _, b := range cell.Verts {
		if v, _ := t.Top(b); v > maxTop {
			maxTop = v
		}
	}
	minTopLB = math.Inf(-1)
	for vs := g.Vertices(); len(vs) > 0; vs = vs[g.Dim():] {
		v := geom.Point(vs[:g.Dim()])
		minG := math.Inf(1)
		for _, b := range cell.Verts {
			if g := geom.FDual(v, b); g < minG {
				minG = g
			}
		}
		if minG > minTopLB {
			minTopLB = minG
		}
	}
	return maxTop, minTopLB
}

// cellBotExtrema returns the exact minimum and a sound upper bound of the
// maximum of BOT^P over the cell (the concave mirror of cellTopExtrema).
func cellBotExtrema(t *constraint.Tuple, cell geom.Polyhedron) (minBot, maxBotUB float64) {
	g := t.Generators()
	minBot = math.Inf(1)
	for _, b := range cell.Verts {
		if v, _ := t.Bot(b); v < minBot {
			minBot = v
		}
	}
	maxBotUB = math.Inf(1)
	for vs := g.Vertices(); len(vs) > 0; vs = vs[g.Dim():] {
		v := geom.Point(vs[:g.Dim()])
		maxG := math.Inf(-1)
		for _, b := range cell.Verts {
			if g := geom.FDual(v, b); g > maxG {
				maxG = g
			}
		}
		if maxG < maxBotUB {
			maxBotUB = maxG
		}
	}
	return minBot, maxBotUB
}

// newSiteSet validates S ⊂ E^{sdim} and computes the clamped Voronoi cell
// of each site: the points of the slope box (slopeBox) nearer to it than
// to any other site.
func newSiteSet(sites []geom.Point, sdim int) (*siteSet, error) {
	if len(sites) == 0 {
		return nil, fmt.Errorf("core: empty site set S")
	}
	for i, s := range sites {
		if s.Dim() != sdim {
			return nil, fmt.Errorf("core: site %v has dimension %d, want %d", s, s.Dim(), sdim)
		}
		for _, t := range sites[:i] {
			if s.Eq(t) {
				return nil, fmt.Errorf("core: duplicate site %v", s)
			}
		}
	}
	lo, hi := slopeBox(sites, sdim)
	g := &siteSet{s: append([]geom.Point(nil), sites...)}
	for i, s := range g.s {
		var hs []geom.HalfSpace
		for j, t := range g.s {
			if i == j {
				continue
			}
			// |x−s|² ≤ |x−t|²  ⇔  2(t−s)·x ≤ |t|² − |s|².
			a := make([]float64, sdim)
			for k := 0; k < sdim; k++ {
				a[k] = 2 * (t[k] - s[k])
			}
			hs = append(hs, geom.HalfSpace{A: a, C: s.Dot(s) - t.Dot(t), Op: geom.LE})
		}
		for k := 0; k < sdim; k++ {
			axis := make([]float64, sdim)
			axis[k] = 1
			hs = append(hs,
				geom.HalfSpace{A: append([]float64(nil), axis...), C: -hi[k], Op: geom.LE},
				geom.HalfSpace{A: axis, C: -lo[k], Op: geom.GE},
			)
		}
		cell, err := geom.FromHalfSpaces(hs, sdim)
		if err != nil {
			return nil, fmt.Errorf("core: cell of site %v: %w", s, err)
		}
		if cell.IsEmpty() || len(cell.Verts) == 0 {
			return nil, fmt.Errorf("core: empty Voronoi cell for site %v", s)
		}
		g.cells = append(g.cells, cell)
	}
	return g, nil
}

// slopeBox derives the clamping box of the Voronoi cells: the sites'
// bounding box expanded by the largest inter-site distance.
func slopeBox(sites []geom.Point, sdim int) (lo, hi []float64) {
	lo = make([]float64, sdim)
	hi = make([]float64, sdim)
	for i := range lo {
		lo[i] = math.Inf(1)
		hi[i] = math.Inf(-1)
	}
	maxDist := 0.0
	for i, s := range sites {
		for k, c := range s {
			lo[k] = math.Min(lo[k], c)
			hi[k] = math.Max(hi[k], c)
		}
		for _, t := range sites[i+1:] {
			maxDist = math.Max(maxDist, s.Dist(t))
		}
	}
	if maxDist == 0 {
		maxDist = 1 // single site
	}
	for i := range lo {
		lo[i] -= maxDist
		hi[i] += maxDist
	}
	return lo, hi
}

// LatticeSites returns a regular grid of k^sdim sites in [−extent, extent]^sdim,
// a natural S for uniformly distributed query slopes in E^{d−1}.
func LatticeSites(sdim, perAxis int, extent float64) []geom.Point {
	if perAxis < 1 || sdim < 1 {
		return nil
	}
	coords := make([]float64, perAxis)
	for i := range coords {
		if perAxis == 1 {
			coords[i] = 0
		} else {
			coords[i] = -extent + 2*extent*float64(i)/float64(perAxis-1)
		}
	}
	total := 1
	for i := 0; i < sdim; i++ {
		total *= perAxis
	}
	out := make([]geom.Point, 0, total)
	idx := make([]int, sdim)
	for {
		p := make(geom.Point, sdim)
		for i, j := range idx {
			p[i] = coords[j]
		}
		out = append(out, p)
		k := 0
		for k < sdim {
			idx[k]++
			if idx[k] < perAxis {
				break
			}
			idx[k] = 0
			k++
		}
		if k == sdim {
			break
		}
	}
	return out
}

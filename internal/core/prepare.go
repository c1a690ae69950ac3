package core

import (
	"runtime"
	"sync"

	"dualcdb/internal/constraint"
)

// prepChunk is the fewest tuples the prepare pass hands one goroutine: a
// relation of fewer than 2·prepChunk tuples is prepared on the caller's.
const prepChunk = 1024

// prepared is what set-up — Build, Open, RebuildHandicaps — computes from
// each tuple of a version before it touches a page (prepare).
type prepared struct {
	// ts holds the version's tuples in id order; the prepare pass read them
	// from here, not from the relation, which is not safe for concurrent use.
	ts []*constraint.Tuple
	// indexed counts the satisfiable tuples of ts, those the trees hold.
	indexed int
	// keys[j·len(ts) + p] is tuple ts[p]'s key in tree j and
	// routes[(j·len(ts) + p)·slots + s] its route for handicap slot s there
	// (slots = len(geo.slotKinds())); both are set for the satisfiable tuples
	// only, and only when the pass computed the sites.
	keys, routes []float64
	// ext holds the version's extent and tangent tables, derived whole (in
	// E²; zero on an index of dimension > 2).
	ext extents
}

// prepare computes, for every tuple of the version v, what set-up needs of
// it: it resolves the tuple and refuses it if it is out of range (checkRange),
// enters its x-extent and tangent bytes in the extent tables (in E²) and, with
// sites, computes its key and its routes at every site. The work is split into
// contiguous chunks of ts, one goroutine each, up to runtime.GOMAXPROCS(0) of
// them; every result is written at its tuple's own index, so what prepare
// returns does not depend on how many goroutines there were. On error it
// returns the error of the out-of-range tuple with the lowest id, as a scan in
// id order would.
func (ix *Index) prepare(v constraint.View, sites bool) (*prepared, error) {
	p := &prepared{ts: make([]*constraint.Tuple, 0, v.MaxID())}
	v.Scan(func(t *constraint.Tuple) bool {
		p.ts = append(p.ts, t)
		return true
	})
	n, trees := len(p.ts), 2*ix.geo.sites()
	if sites {
		p.keys = make([]float64, trees*n)
		p.routes = make([]float64, trees*n*len(ix.geo.slotKinds()))
	}
	if ix.dim == 2 {
		p.ext = extents{
			xext:   make([][2]float64, v.MaxID()),
			tan:    make([]uint8, v.MaxID()*trees),
			stride: trees,
		}
	}
	workers := max(1, min(runtime.GOMAXPROCS(0), n/prepChunk))
	counts := make([]int, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		lo, hi := w*n/workers, (w+1)*n/workers
		if w == workers-1 {
			counts[w], errs[w] = ix.prepareRange(p, lo, hi, sites)
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			counts[w], errs[w] = ix.prepareRange(p, lo, hi, sites)
		}()
	}
	wg.Wait()
	for w := range workers {
		if errs[w] != nil {
			return nil, errs[w]
		}
		p.indexed += counts[w]
	}
	return p, nil
}

// prepareRange is prepare's work on the tuples ts[lo:hi]: it returns how many
// of them are satisfiable, or the first one's range error. It writes the
// extent table entries of its tuples' ids and of the unassigned ids just below
// each — and of those past the last tuple, when hi is the end.
func (ix *Index) prepareRange(p *prepared, lo, hi int, sites bool) (int, error) {
	n, slots := len(p.ts), len(ix.geo.slotKinds())
	indexed := 0
	for q := lo; q < hi; q++ {
		t := p.ts[q]
		if err := checkRange(t); err != nil {
			return 0, err
		}
		if e := &p.ext; e.xext != nil {
			id := int(t.ID())
			for gap := id - 1; gap > 0 && (q == 0 || gap > int(p.ts[q-1].ID())); gap-- {
				e.xext[gap-1] = noExtent
			}
			x := xExtent(t)
			e.xext[id-1] = x
			at := (id - 1) * e.stride
			appendTangents(e.tan[at:at:at+e.stride], t, x, ix.geo)
		}
		if !t.IsSatisfiable() {
			continue
		}
		indexed++
		if !sites {
			continue
		}
		for i := 0; i < ix.geo.sites(); i++ {
			top, bot := ix.keys(t, i)
			up, down := ix.geo.routes(t, i)
			p.keys[2*i*n+q], p.keys[(2*i+1)*n+q] = top, bot
			copy(p.routes[(2*i*n+q)*slots:], up[:slots])
			copy(p.routes[((2*i+1)*n+q)*slots:], down[:slots])
		}
	}
	if e := &p.ext; e.xext != nil && hi == n {
		last := 0
		if n > 0 {
			last = int(p.ts[n-1].ID())
		}
		for id := last + 1; id <= len(e.xext); id++ {
			e.xext[id-1] = noExtent
		}
	}
	return indexed, nil
}

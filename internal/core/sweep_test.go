package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dualcdb/internal/btree"
	"dualcdb/internal/geom"
	"dualcdb/internal/pagestore"
)

// refRun is the per-entry sweep loop sweep.run replaced: one pass over every
// entry through the LeafView accessors, with the verdict switch inside it.
// TestSweepKernelMatchesReference holds the in-place, per-leaf-verdict
// kernel to it.
func (s sweep) refRun(tr *btree.Tree, rc *pagestore.ReadCounter, sc *scratch, st *QueryStats) (int, float64, error) {
	h := math.Inf(1)
	if !s.asc {
		h = math.Inf(-1)
	}
	lo, hi := btree.RoundKey(s.lo), btree.RoundKey(s.hi)
	bound := lo
	if !s.asc {
		bound = hi
	}
	cands0, sure0, rejected, tangent := len(sc.cands), len(sc.sure), 0, 0
	var skip func(btree.Bound) btree.Step
	if s.rule.xext != nil && s.slot < 0 {
		skip = func(b btree.Bound) btree.Step { return s.rule.step(b, lo, hi, s.asc) }
	}
	visit := func(lv btree.LeafView) bool {
		st.LeavesSwept++
		if s.slot >= 0 {
			if s.asc {
				h = min(h, lv.Handicap(s.slot))
			} else {
				h = max(h, lv.Handicap(s.slot))
			}
		}
		n := lv.Len()
		var rule keyRule
		whole := evaluate
		if s.rule.xext != nil && n > 0 {
			rule = s.rule.atLeaf(refFiniteKeyBound(lv, n))
			whole = rule.decideRange(max(lv.Key(0), lo), min(lv.Key(n-1), hi), lv.Extent())
		}
		for i := 0; i < n; i++ {
			switch k := lv.Key(i); {
			case !(k >= lo && k <= hi):
			case s.sure && k != bound:
				sc.sure = append(sc.sure, lv.TID(i))
			case rule.xext == nil:
				sc.cands = append(sc.cands, lv.TID(i))
			case whole == accept:
				sc.sure = append(sc.sure, lv.TID(i))
			case whole == reject:
				rejected++
			default:
				tid := lv.TID(i)
				v := evaluate
				if j := int(tid) - 1; uint(j) < uint(len(rule.xext)) {
					v = rule.decide(k, rule.xext[j])
					if v == evaluate && rule.tan != nil {
						if v = rule.tangent(k, rule.xext[j], rule.tan[j*rule.stride+rule.col]); v != evaluate {
							tangent++
						}
					}
				}
				switch v {
				case accept:
					sc.sure = append(sc.sure, tid)
				case reject:
					rejected++
				default:
					sc.cands = append(sc.cands, tid)
				}
			}
		}
		switch {
		case n == 0:
			return true
		case s.asc:
			return lv.Key(n-1) <= hi
		default:
			return lv.Key(0) >= lo
		}
	}
	err := tr.Sweep(s.from, s.asc, rc, skip, visit)
	decided := len(sc.sure) - sure0 + rejected
	retrieved := len(sc.cands) - cands0 + decided
	st.Candidates += retrieved
	st.Decided += decided
	st.Sure += len(sc.sure) - sure0
	st.Tangent += tangent
	return retrieved, h, err
}

func refFiniteKeyBound(lv btree.LeafView, n int) float64 {
	i, j := 0, n-1
	for i < j && math.IsInf(lv.Key(i), 0) {
		i++
	}
	for j > i && math.IsInf(lv.Key(j), 0) {
		j--
	}
	if m := max(math.Abs(lv.Key(i)), math.Abs(lv.Key(j))); !math.IsInf(m, 0) {
		return m
	}
	return 0
}

// kernelTree is a random tree for the sweep kernel: keys drawn from a small
// pool of stored values — so equal keys run across leaf boundaries and a
// sweep's rounded bound is often a stored key — plus ±Inf, one key repeated
// past a leaf's capacity and scattered fresh values; extents that follow the
// keys, a few x-unbounded; tuple ids past the end of the extent table, and a
// table of random tangent bytes for two trees beside it; two handicap slots;
// and, in some trees, deletes that merge leaves or empty the tree.
func kernelTree(t *testing.T, rng *rand.Rand, pageSize, n int, emptyAll bool) (*btree.Tree, extents, []float64) {
	t.Helper()
	pool := make([]float64, 0, 48)
	for i := 0; i < 40; i++ {
		pool = append(pool, btree.RoundKey(rng.Float64()*120-60))
	}
	pool = append(pool, math.Inf(1), math.Inf(-1), btree.RoundKey(3e30), btree.RoundKey(-3e30))
	heavy := pool[rng.Intn(40)]

	entries := make([]btree.Entry, n)
	for i := range entries {
		var k float64
		switch r := rng.Intn(10); {
		case r < 2:
			k = heavy
		case r < 8:
			k = pool[rng.Intn(len(pool))]
		default:
			k = rng.Float64()*140 - 70
		}
		entries[i] = btree.Entry{Key: k, TID: uint32(i + 1)}
	}
	// Extents follow the keys, as a relation's do when its tuples lie apart,
	// so that leaves are settled whole; a few are x-unbounded.
	exts := make([][2]float64, n)
	for i, e := range entries {
		x0 := rng.Float64()*100 - 50
		if !math.IsInf(e.Key, 0) && math.Abs(e.Key) < 1e3 {
			x0 = e.Key/2 + rng.Float64()*4 - 2
		}
		x := [2]float64{x0, x0 + rng.Float64()*3}
		switch rng.Intn(300) {
		case 0:
			x[0] = math.Inf(-1)
		case 1:
			x[1] = math.Inf(1)
		}
		exts[i] = x
	}
	// The tree bounds every entry, the tables stop short of the last ids.
	ext := extents{xext: exts[:n-n/50], stride: 2}
	for range 2 * len(ext.xext) {
		ext.tan = append(ext.tan, uint8(rng.Intn(256)))
	}
	of := func(tid uint32) [2]float64 { return exts[tid-1] }

	tr, err := btree.New(pagestore.NewPool(pagestore.NewMemStore(pageSize), 1<<12),
		btree.Config{HandicapKinds: []btree.SlotKind{btree.MinSlot, btree.MaxSlot}})
	if err != nil {
		t.Fatal(err)
	}
	if rng.Intn(2) == 0 {
		if err := tr.BulkLoadExt(slices.Clone(entries), of); err != nil {
			t.Fatal(err)
		}
	} else {
		for _, e := range entries {
			if err := tr.InsertExt(e.Key, e.TID, of(e.TID)); err != nil {
				t.Fatal(err)
			}
		}
	}
	switch {
	case emptyAll:
		for _, e := range entries {
			if _, err := tr.Delete(e.Key, e.TID); err != nil {
				t.Fatal(err)
			}
		}
	case rng.Intn(2) == 0:
		// Delete a run of the key order, so whole leaves underflow and merge.
		slices.SortFunc(entries, btree.Entry.Compare)
		from := rng.Intn(n / 2)
		for _, e := range entries[from : from+n/3] {
			if _, err := tr.Delete(btree.RoundKey(e.Key), e.TID); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 60; i++ {
		route := pool[rng.Intn(len(pool))]
		if err := tr.MergeHandicap(route, i%2, rng.Float64()*140-70); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return tr, ext, pool
}

// TestSweepKernelMatchesReference holds sweep.run — entries read in place,
// one loop per leaf verdict — to the per-entry loop it replaced, on random
// trees at 1 KiB and 256 B pages, for every kind of sweep: the restricted
// path's sure sweep, T1's plain one, T2's first sweep folding a handicap
// slot, T2's second sweep with its skip test — both mostly with a tangent
// table — and, as in E^d, without a rule: the one bounded sweep that only its
// own stop test ends. Both must retrieve the same references in the same
// order, settle and reject the same ones, count the same candidates,
// decisions (the tangent's among them) and leaves, read the same pages and
// fold the same handicap.
func TestSweepKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, pageSize := range []int{1024, 256} {
		for trial := 0; trial < 6; trial++ {
			tr, ext, pool := kernelTree(t, rng, pageSize, 1500+rng.Intn(1500), trial == 5)
			for q := 0; q < 150; q++ {
				b := pool[rng.Intn(len(pool)-4)]
				if rng.Intn(4) == 0 {
					b = rng.Float64()*140 - 70
				}
				tol := []float64{0, geom.Eps, 1e-3}[rng.Intn(3)]
				up := rng.Intn(2) == 0
				shift := []float64{0, rng.Float64()*4 - 2, rng.Float64()*0.02 - 0.01}[rng.Intn(3)]
				rule := slopeRule(ext.xext, b, tol+rng.Float64()*0.5, shift, up)
				if rng.Intn(4) != 0 { // with the tangent of one of the two trees
					rule.tan, rule.stride, rule.col, rule.top = ext.tan, ext.stride, rng.Intn(2), rng.Intn(2) == 0
				}
				slot := 0
				if !up {
					slot = 1
				}
				h := pool[rng.Intn(len(pool))]
				restricted := firstSweep(b, tol, up, -1)
				restricted.sure = true
				t2first := firstSweep(b, tol, up, slot)
				t2first.rule = rule
				t2second := secondSweep(b, tol, up, h)
				t2second.rule = rule
				for _, c := range []struct {
					name string
					sw   sweep
				}{
					{"restricted", restricted},
					{"t1", firstSweep(b, tol, up, -1)},
					{"t2-first", t2first},
					{"t2-second", t2second},
					// E^d's second sweep: no rule, so no skip test to stop it.
					{"t2-second-d", secondSweep(b, tol, up, h)},
				} {
					name := fmt.Sprintf("page %d trial %d query %d %s (b %v tol %v up %v shift %v h %v)",
						pageSize, trial, q, c.name, b, tol, up, shift, h)
					compareKernel(t, name, tr, c.sw)
				}
			}
		}
	}
}

func compareKernel(t *testing.T, name string, tr *btree.Tree, sw sweep) {
	t.Helper()
	type outcome struct {
		sc       scratch
		st       QueryStats
		n        int
		h        float64
		rejected int
		pages    uint64
	}
	do := func(run func(*btree.Tree, *pagestore.ReadCounter, *scratch, *QueryStats) (int, float64, error)) outcome {
		var o outcome
		// A reference already in the scratch must stay in front of the sweep's.
		o.sc.cands, o.sc.sure = []uint32{7}, []uint32{9}
		var rc pagestore.ReadCounter
		var err error
		o.n, o.h, err = run(tr, &rc, &o.sc, &o.st)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		o.rejected = o.st.Decided - (len(o.sc.sure) - 1)
		o.pages = rc.Logical.Load()
		return o
	}
	got, want := do(sw.run), do(sw.refRun)
	switch {
	case !slices.Equal(got.sc.sure, want.sc.sure):
		t.Fatalf("%s: sure %v, reference %v", name, got.sc.sure, want.sc.sure)
	case !slices.Equal(got.sc.cands, want.sc.cands):
		t.Fatalf("%s: cands %v, reference %v", name, got.sc.cands, want.sc.cands)
	case got.st != want.st || got.n != want.n || got.rejected != want.rejected || got.pages != want.pages:
		t.Fatalf("%s: stats %+v, %d retrieved, %d rejected, %d pages; reference %+v, %d, %d, %d",
			name, got.st, got.n, got.rejected, got.pages, want.st, want.n, want.rejected, want.pages)
	case math.Float64bits(got.h) != math.Float64bits(want.h):
		t.Fatalf("%s: folded handicap %v, reference %v", name, got.h, want.h)
	}
}

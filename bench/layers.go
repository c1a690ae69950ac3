package main

import (
	"math"
	"slices"
	"time"

	"dualcdb/internal/btree"
	"dualcdb/internal/constraint"
	"dualcdb/internal/pagestore"
)

// layerReplays measures single layers through their public functions with
// fixed operation counts, on the workload's own data: a stand-alone
// btree.Tree bulk-loaded with the relation's TOP keys at S[0], a
// pagestore.Pool over a MemStore, and the geometry the refinement step
// calls. They run after the timed phases of a traced run and feed no
// end-to-end metric.
func layerReplays(m map[string]float64, tuples []*constraint.Tuple, in *inputs) error {
	if err := btreeReplays(m, tuples, in); err != nil {
		return err
	}
	if err := poolReplays(m); err != nil {
		return err
	}
	return geomReplays(m, tuples, in)
}

// sink receives the replays' results so that the compiler keeps the calls.
var sink float64

// per is the mean time of n operations in nanoseconds.
func per(d time.Duration, n int) float64 { return float64(d) / float64(n) }

func btreeReplays(m map[string]float64, tuples []*constraint.Tuple, in *inputs) error {
	a := in.slopes[0]
	entries := make([]btree.Entry, len(tuples))
	for i, t := range tuples {
		entries[i] = btree.Entry{Key: t.TopEnv().Eval(a), TID: uint32(t.ID())}
	}
	slices.SortFunc(entries, btree.Entry.Compare)
	// The index's own tree shape: four handicap slots per leaf.
	cfg := btree.Config{HandicapKinds: []btree.SlotKind{btree.MinSlot, btree.MinSlot, btree.MaxSlot, btree.MaxSlot}}
	pool := pagestore.NewPool(pagestore.NewMemStore(pageSize), len(entries)/8+1024)
	tree, err := btree.New(pool, cfg)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if err := tree.BulkLoad(entries); err != nil {
		return err
	}
	m["btree.bulkload_ns_per_entry"] = per(time.Since(t0), len(entries))

	probes := strideEntries(entries, 4096)
	t0 = time.Now()
	for _, e := range probes {
		if _, err := tree.Contains(e.Key, e.TID); err != nil {
			return err
		}
	}
	m["btree.descend_ns"] = per(time.Since(t0), len(probes))

	sweep := func() (leaves int, err error) {
		err = tree.VisitLeavesAsc(math.Inf(-1), func(lv btree.LeafView) bool {
			leaves++
			for i, n := 0, lv.Len(); i < n; i++ {
				sink += lv.Key(i) + float64(lv.TID(i))
			}
			return true
		})
		return leaves, err
	}
	const sweeps = 5
	t0 = time.Now()
	for i := 0; i < sweeps; i++ {
		if _, err := sweep(); err != nil {
			return err
		}
	}
	m["btree.sweep_warm_ns_per_entry"] = per(time.Since(t0), sweeps*len(entries))
	var cold time.Duration
	leaves := 0
	for i := 0; i < sweeps; i++ {
		if err := pool.EvictAll(); err != nil {
			return err
		}
		t0 = time.Now()
		n, err := sweep()
		if err != nil {
			return err
		}
		cold += time.Since(t0)
		leaves += n
	}
	m["btree.sweep_cold_ns_per_leaf"] = per(cold, leaves)

	// Fresh entries: the writer's templates at ids past the relation's.
	fresh := make([]btree.Entry, len(in.templates))
	for i, cons := range in.templates {
		t, err := constraint.NewTuple(2, cons)
		if err != nil {
			return err
		}
		fresh[i] = btree.Entry{Key: t.TopEnv().Eval(a), TID: uint32(1<<30 + i)}
	}
	t0 = time.Now()
	for _, e := range fresh {
		if err := tree.Insert(e.Key, e.TID); err != nil {
			return err
		}
	}
	m["btree.insert_ns"] = per(time.Since(t0), len(fresh))
	t0 = time.Now()
	for _, e := range fresh {
		if _, err := tree.Delete(e.Key, e.TID); err != nil {
			return err
		}
	}
	m["btree.delete_ns"] = per(time.Since(t0), len(fresh))

	// One copy-on-write batch per insert, as Index.Insert makes; handing the
	// superseded pages back is the pool's work and stays outside the timing.
	clones := pool.Stats().Clones
	var cow time.Duration
	for i, e := range fresh {
		t0 = time.Now()
		tree.BeginCOW()
		if err := tree.Insert(e.Key, e.TID); err != nil {
			return err
		}
		superseded := tree.CommitCOW()
		cow += time.Since(t0)
		pool.DeferFrees(uint64(i+2), superseded)
	}
	m["btree.cow_insert_ns"] = per(cow, len(fresh))
	m["btree.cow_clones_per_insert"] = float64(pool.Stats().Clones-clones) / float64(len(fresh))
	return tree.CheckInvariants()
}

func strideEntries(es []btree.Entry, max int) []btree.Entry {
	if len(es) <= max {
		return es
	}
	out := make([]btree.Entry, max)
	for i := range out {
		out[i] = es[i*len(es)/max]
	}
	return out
}

// poolReplays times Pool.Get/Release on a resident page and on a page the
// pool has to fetch from a MemStore (the miss path without a device).
func poolReplays(m map[string]float64) error {
	const pages, rounds = 256, 64
	store := pagestore.NewMemStore(pageSize)
	ids := make([]pagestore.PageID, pages)
	for i := range ids {
		id, err := store.Alloc()
		if err != nil {
			return err
		}
		ids[i] = id
	}
	cycle := func(pool *pagestore.Pool) (time.Duration, error) {
		t0 := time.Now()
		for r := 0; r < rounds; r++ {
			for _, id := range ids {
				f, err := pool.Get(id)
				if err != nil {
					return 0, err
				}
				f.Release()
			}
		}
		return time.Since(t0), nil
	}
	warm := pagestore.NewPool(store, 2*pages)
	if _, err := cycle(warm); err != nil { // fills the pool
		return err
	}
	d, err := cycle(warm)
	if err != nil {
		return err
	}
	m["pagestore.pool.get_hit_ns"] = per(d, pages*rounds)
	// A pool an eighth the size of the cycle: by the time a page comes round
	// again it has been evicted, so every Get misses.
	small := pagestore.NewPool(store, pages/8)
	if d, err = cycle(small); err != nil {
		return err
	}
	m["pagestore.pool.get_miss_ns"] = per(d, pages*rounds)
	return nil
}

// geomReplays times what refinement calls per candidate (Tuple.Top/Bot),
// what Build and Insert call per tuple (Extension, on fresh tuples) and the
// cached-envelope evaluation ROADMAP direction 2a would replace Top/Bot by.
func geomReplays(m map[string]float64, tuples []*constraint.Tuple, in *inputs) error {
	if len(tuples) > 8192 {
		tuples = tuples[:8192]
	}
	slope := in.queries[0].Slope
	t0 := time.Now()
	for _, t := range tuples {
		v, err := t.Top(slope)
		if err != nil {
			return err
		}
		sink += v
	}
	m["geom.top_ns"] = per(time.Since(t0), len(tuples))
	t0 = time.Now()
	for _, t := range tuples {
		v, err := t.Bot(slope)
		if err != nil {
			return err
		}
		sink += v
	}
	m["geom.bot_ns"] = per(time.Since(t0), len(tuples))
	t0 = time.Now()
	for _, t := range tuples {
		sink += t.TopEnv().Eval(slope[0])
	}
	m["geom.env_eval_ns"] = per(time.Since(t0), len(tuples))

	fresh := make([]*constraint.Tuple, len(tuples))
	for i, t := range tuples {
		c, err := constraint.NewTuple(2, t.Constraints())
		if err != nil {
			return err
		}
		fresh[i] = c
	}
	t0 = time.Now()
	for _, t := range fresh {
		ext, err := t.Extension()
		if err != nil {
			return err
		}
		sink += float64(len(ext.Verts))
	}
	m["geom.extension_ns"] = per(time.Since(t0), len(fresh))
	return nil
}

package btree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"dualcdb/internal/pagestore"
)

func benchTree(b *testing.B, kinds []SlotKind) *Tree {
	b.Helper()
	pool := pagestore.NewPool(pagestore.NewMemStore(1024), 1<<16)
	tr, err := New(pool, Config{HandicapKinds: kinds})
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

func BenchmarkInsertRandom(b *testing.B) {
	tr := benchTree(b, nil)
	rng := rand.New(rand.NewSource(1))
	keys := make([]float64, b.N)
	for i := range keys {
		keys[i] = rng.Float64() * 1e6
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Insert(keys[i], uint32(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsertSequential(b *testing.B) {
	tr := benchTree(b, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Insert(float64(i), uint32(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBulkLoad(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	entries := make([]Entry, 50000)
	for i := range entries {
		entries[i] = Entry{Key: rng.Float64() * 1e6, TID: uint32(i + 1)}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Less(entries[j]) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := benchTree(b, nil)
		if err := tr.BulkLoad(entries); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkContains(b *testing.B) {
	tr := benchTree(b, nil)
	rng := rand.New(rand.NewSource(3))
	const n = 50000
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = rng.Float64() * 1e6
	}
	sorted := make([]Entry, n)
	for i, k := range keys {
		sorted[i] = Entry{Key: k, TID: uint32(i + 1)}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
	if err := tr.BulkLoad(sorted); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%n]
		if _, err := tr.Contains(k, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepAscend(b *testing.B) {
	tr := benchTree(b, nil)
	const n = 50000
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Key: float64(i), TID: uint32(i + 1)}
	}
	if err := tr.BulkLoad(entries); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		err := tr.VisitLeavesAsc(float64(n)*0.9, func(lv LeafView) bool {
			count += lv.Len()
			return true
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepWarm sweeps the last 10% of a 50000-entry tree out of a warm
// pool: the allocs/op acceptance check of the zero-copy read path.
func BenchmarkSweepWarm(b *testing.B) {
	tr := benchTree(b, nil)
	const n = 50000
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Key: float64(i), TID: uint32(i + 1)}
	}
	if err := tr.BulkLoad(entries); err != nil {
		b.Fatal(err)
	}
	// Prime the pool so the loop measures the steady state.
	if _, err := tr.ScanAll(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		err := tr.VisitLeavesAsc(float64(n)*0.9, func(lv LeafView) bool {
			count += lv.Len()
			return true
		})
		if err != nil || count == 0 {
			b.Fatalf("count=%d err=%v", count, err)
		}
	}
}

// BenchmarkSweepCold sweeps a file-backed tree whose pool is evicted before
// every iteration, so each sweep pays the full physical read cost.
func BenchmarkSweepCold(b *testing.B) {
	store, err := pagestore.OpenFileStore(b.TempDir()+"/bench.db", 1024)
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	pool := pagestore.NewPool(store, 1<<16)
	tr, err := New(pool, Config{})
	if err != nil {
		b.Fatal(err)
	}
	const n = 50000
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Key: float64(i), TID: uint32(i + 1)}
	}
	if err := tr.BulkLoad(entries); err != nil {
		b.Fatal(err)
	}
	pool.ResetStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := pool.EvictAll(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		count := 0
		err := tr.VisitLeavesAsc(float64(n)*0.9, func(lv LeafView) bool {
			count += lv.Len()
			return true
		})
		if err != nil || count == 0 {
			b.Fatalf("count=%d err=%v", count, err)
		}
	}
	b.StopTimer()
	st := pool.Stats()
	b.ReportMetric(float64(st.PhysicalReads)/float64(b.N), "physreads/op")
}

func BenchmarkMergeHandicap(b *testing.B) {
	tr := benchTree(b, []SlotKind{MinSlot, MinSlot, MaxSlot, MaxSlot})
	const n = 20000
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Key: float64(i), TID: uint32(i + 1)}
	}
	if err := tr.BulkLoad(entries); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.MergeHandicap(rng.Float64()*n, i%4, rng.Float64()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeleteRandom(b *testing.B) {
	tr := benchTree(b, nil)
	rng := rand.New(rand.NewSource(5))
	entries := make([]Entry, b.N)
	for i := range entries {
		entries[i] = Entry{Key: rng.Float64() * 1e6, TID: uint32(i + 1)}
	}
	sorted := append([]Entry(nil), entries...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
	if err := tr.BulkLoad(sorted); err != nil {
		b.Fatal(err)
	}
	rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Delete(entries[i].Key, entries[i].TID); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanAll(b *testing.B) {
	tr := benchTree(b, nil)
	const n = 50000
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Key: float64(i), TID: uint32(i + 1)}
	}
	if err := tr.BulkLoad(entries); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := tr.ScanAll()
		if err != nil || len(got) != n {
			b.Fatalf("%d %v", len(got), err)
		}
	}
}

var sinkFloat float64

func BenchmarkEntryCodec(b *testing.B) {
	pool := pagestore.NewPool(pagestore.NewMemStore(1024), 64)
	f, err := pool.NewPage()
	if err != nil {
		b.Fatal(err)
	}
	n := wrap(f)
	n.initLeaf(0, nil)
	n.setCount(10)
	n.setEntry(5, Entry{Key: math.Pi, TID: 42})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := n.entry(5)
		sinkFloat = e.Key
	}
}

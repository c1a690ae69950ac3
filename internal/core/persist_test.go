package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"dualcdb/internal/btree"
	"dualcdb/internal/constraint"
	"dualcdb/internal/pagestore"
	"dualcdb/internal/workload"
)

// TestSaveOpenRoundTripMem: save into a memory store, reopen through a new
// pool, and verify identical query answers across all paths.
func TestSaveOpenRoundTripMem(t *testing.T) {
	rng := rand.New(rand.NewSource(601))
	store := pagestore.NewMemStore(1024)
	rel := constraint.NewRelation(2)
	for i := 0; i < 200; i++ {
		if _, err := rel.Insert(randTuple(rng, true)); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := Build(rel, Options{
		Slopes: EquiangularSlopes(3), Technique: T2, Store: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(); err != nil {
		t.Fatal(err)
	}

	rel2, ix2, err := Open(pagestore.NewPool(store, 512))
	if err != nil {
		t.Fatal(err)
	}
	if rel2.Len() != rel.Len() {
		t.Fatalf("reopened relation has %d tuples, want %d", rel2.Len(), rel.Len())
	}
	if ix2.Len() != ix.Len() {
		t.Fatalf("reopened index has %d tuples, want %d", ix2.Len(), ix.Len())
	}
	if !slices.Equal(ix2.Slopes(), ix.Slopes()) {
		t.Fatalf("slopes not restored: %v, want %v", ix2.Slopes(), ix.Slopes())
	}
	for i := range ix.Slopes() {
		lo, hi := ix.geo.(*slopeSet).stripBounds(i)
		if lo2, hi2 := ix2.geo.(*slopeSet).stripBounds(i); lo2 != lo || hi2 != hi {
			t.Fatalf("strip %d restored as [%v, %v], want [%v, %v]", i, lo2, hi2, lo, hi)
		}
	}
	for qi := 0; qi < 60; qi++ {
		q := randQuery(rng)
		want, err := ix.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ix2.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(got.IDs, want.IDs) {
			t.Fatalf("%v: reopened %v, original %v", q, got.IDs, want.IDs)
		}
		truth, err := q.Eval(rel2)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(got.IDs, truth) {
			t.Fatalf("%v: reopened %v, ground truth %v", q, got.IDs, truth)
		}
	}
}

// TestSaveOpenRoundTripFile: the full on-disk lifecycle, including closing
// and reopening the file.
func TestSaveOpenRoundTripFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cdb.pages")
	rng := rand.New(rand.NewSource(602))

	store, err := pagestore.OpenFileStore(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	rel := constraint.NewRelation(2)
	for i := 0; i < 150; i++ {
		if _, err := rel.Insert(randTuple(rng, true)); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := Build(rel, Options{Slopes: EquiangularSlopes(2), Technique: T1, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(); err != nil {
		t.Fatal(err)
	}
	// Capture expected answers before closing.
	queries := make([]constraint.Query, 20)
	wants := make([][]constraint.TupleID, 20)
	for i := range queries {
		queries[i] = randQuery(rng)
		res, err := ix.Query(queries[i])
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = res.IDs
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := pagestore.OpenExistingFileStore(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	rel2, ix2, err := Open(pagestore.NewPool(store2, 512))
	if err != nil {
		t.Fatal(err)
	}
	if rel2.Len() != 150 {
		t.Fatalf("reopened relation: %d tuples", rel2.Len())
	}
	if ix2.opt.Technique != T1 {
		t.Fatalf("technique not restored: %v", ix2.opt.Technique)
	}
	for i, q := range queries {
		got, err := ix2.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(got.IDs, wants[i]) {
			t.Fatalf("%v: reopened %v, want %v", q, got.IDs, wants[i])
		}
	}
	// The reopened database must accept further updates.
	id, err := ix2.Insert(randTuple(rng, false))
	if err != nil {
		t.Fatal(err)
	}
	if err := ix2.Delete(id); err != nil {
		t.Fatal(err)
	}
	if err := ix2.Save(); err != nil {
		t.Fatal(err)
	}
}

// TestSaveTwiceReclaimsChain: repeated saves must not leak tuple-chain
// pages.
func TestSaveTwiceReclaimsChain(t *testing.T) {
	rng := rand.New(rand.NewSource(603))
	store := pagestore.NewMemStore(1024)
	rel := constraint.NewRelation(2)
	for i := 0; i < 100; i++ {
		_, _ = rel.Insert(randTuple(rng, false))
	}
	ix, err := Build(rel, Options{Slopes: EquiangularSlopes(2), Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(); err != nil {
		t.Fatal(err)
	}
	after1 := store.NumAllocated()
	for i := 0; i < 5; i++ {
		if err := ix.Save(); err != nil {
			t.Fatal(err)
		}
	}
	if got := store.NumAllocated(); got != after1 {
		t.Fatalf("page leak across saves: %d vs %d", got, after1)
	}
}

// TestOpenRejectsGarbage: opening a store without a catalog fails cleanly.
func TestOpenRejectsGarbage(t *testing.T) {
	store := pagestore.NewMemStore(1024)
	if _, err := store.Alloc(); err != nil { // page 1 exists but is zeroed
		t.Fatal(err)
	}
	if _, _, err := Open(pagestore.NewPool(store, 64)); err == nil {
		t.Fatal("Open must reject a store without a catalog")
	}
	// Entirely empty store: page 1 absent.
	if _, _, err := Open(pagestore.NewPool(pagestore.NewMemStore(1024), 64)); err == nil {
		t.Fatal("Open must reject an empty store")
	}
}

// TestOpenRejectsDamagedCatalog corrupts one catalog field (or the tuple
// chain's next pointer) of a saved database at a time: Open must return an
// error — not panic, not loop — after reading no more pages than the store
// holds.
func TestOpenRejectsDamagedCatalog(t *testing.T) {
	const slope0 = catalogFixed // offset of the slope table
	putF := func(d []byte, off int, v float64) {
		binary.LittleEndian.PutUint64(d[off:off+8], math.Float64bits(v))
	}
	getF := func(d []byte, off int) float64 {
		return math.Float64frombits(binary.LittleEndian.Uint64(d[off : off+8]))
	}
	for name, damage := range map[string]func(catalog, chainHead []byte){
		"k-beyond-page":     func(d, _ []byte) { binary.LittleEndian.PutUint16(d[10:12], 0xFFFF) },
		"k-above-max":       func(d, _ []byte) { binary.LittleEndian.PutUint16(d[10:12], maxPersistK+1) },
		"k-zero":            func(d, _ []byte) { binary.LittleEndian.PutUint16(d[10:12], 0) },
		"slope-nan":         func(d, _ []byte) { putF(d, slope0+8, math.NaN()) },
		"slope-inf":         func(d, _ []byte) { putF(d, slope0+16, math.Inf(1)) },
		"slopes-unsorted":   func(d, _ []byte) { putF(d, slope0, getF(d, slope0+16)+1) },
		"slopes-within-eps": func(d, _ []byte) { putF(d, slope0+8, getF(d, slope0)) },
		"technique":         func(d, _ []byte) { d[8] = 7 },
		"previous-format":   func(d, _ []byte) { copy(d[0:8], "DCDB0005") },
		"pivot-nan":         func(d, _ []byte) { putF(d, 16, math.NaN()) },
		"pivot-moved":       func(d, _ []byte) { putF(d, 16, 2.5) },
		"outer-width-nan":   func(d, _ []byte) { putF(d, 24, math.NaN()) },
		"outer-width-wide":  func(d, _ []byte) { putF(d, 24, 80*getF(d, 24)) },
		"chain-cycle": func(d, head []byte) {
			// The first chain page points back at itself.
			copy(head[0:4], d[40:44])
		},
	} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(604))
			store := pagestore.NewMemStore(1024)
			rel := constraint.NewRelation(2)
			for i := 0; i < 120; i++ {
				if _, err := rel.Insert(randTuple(rng, true)); err != nil {
					t.Fatal(err)
				}
			}
			ix, err := Build(rel, Options{Slopes: EquiangularSlopes(3), Technique: T2, Store: store})
			if err != nil {
				t.Fatal(err)
			}
			if err := ix.Save(); err != nil {
				t.Fatal(err)
			}
			cat, err := ix.Pool().Get(catalogPage)
			if err != nil {
				t.Fatal(err)
			}
			head, err := ix.Pool().Get(ix.tupleChain)
			if err != nil {
				t.Fatal(err)
			}
			damage(cat.Data(), head.Data())
			cat.MarkDirty()
			head.MarkDirty()
			cat.Release()
			head.Release()
			if err := ix.Pool().Flush(); err != nil {
				t.Fatal(err)
			}

			pool := pagestore.NewPool(store, 64)
			_, _, err = Open(pool)
			if err == nil {
				t.Fatal("Open accepted the damaged database")
			}
			if name != "chain-cycle" && !errors.Is(err, ErrCatalog) {
				t.Fatalf("Open of a damaged catalog: %v, want ErrCatalog", err)
			}
			if reads, budget := pool.Stats().LogicalReads, uint64(store.NumAllocated())+1; reads > budget {
				t.Fatalf("Open read %d pages before failing, budget %d", reads, budget)
			}
		})
	}
}

// TestOpenRefusesVerticalPairCatalog: catalog byte [9] once flagged a
// V^up/V^down tree pair stored after the site trees. A file that records it
// has trees this index does not keep, so Open refuses it with ErrCatalog
// and leaves no frame pinned.
func TestOpenRefusesVerticalPairCatalog(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	store := pagestore.NewMemStore(1024)
	rel := constraint.NewRelation(2)
	for i := 0; i < 60; i++ {
		if _, err := rel.Insert(randTuple(rng, true)); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := Build(rel, Options{Slopes: EquiangularSlopes(3), Technique: T2, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(); err != nil {
		t.Fatal(err)
	}
	cat, err := ix.Pool().Get(catalogPage)
	if err != nil {
		t.Fatal(err)
	}
	if d := cat.Data(); d[9] != 0 {
		t.Fatalf("Save wrote catalog byte [9] = %#x, want 0", d[9])
	}
	cat.Data()[9] = 1
	cat.MarkDirty()
	cat.Release()
	if err := ix.Pool().Flush(); err != nil {
		t.Fatal(err)
	}

	pool := pagestore.NewPool(store, 64)
	_, reopened, err := Open(pool)
	if !errors.Is(err, ErrCatalog) || !strings.Contains(err.Error(), "vertical") || reopened != nil {
		t.Fatalf("Open of a catalog recording a vertical pair: %v, want ErrCatalog naming the pair", err)
	}
	if r := pool.Residency(); r.Pinned != 0 {
		t.Fatalf("the refused Open left %d frames pinned", r.Pinned)
	}
}

// TestOpenRefusesDamagedTupleID: one tuple id of a saved file overwritten
// with 0x7fffffff used to end the process — the relation's spine and the
// x-extent table are sized by the largest id, 32 GB here. Open must refuse the
// stream with constraint.ErrIDLimit before anything is sized by the id.
func TestOpenRefusesDamagedTupleID(t *testing.T) {
	rng := rand.New(rand.NewSource(605))
	store := pagestore.NewMemStore(1024)
	_, ix := buildRandomIndex(t, rng, 120, Options{Slopes: EquiangularSlopes(3), Technique: T2, Store: store}, true)
	if err := ix.Save(); err != nil {
		t.Fatal(err)
	}
	head, err := ix.Pool().Get(ix.tupleChain)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(head.Data()[chainHeaderLen:], 0x7fffffff) // the stream's first id
	head.MarkDirty()
	head.Release()
	if err := ix.Pool().Flush(); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err = Open(pagestore.NewPool(store, 64))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, constraint.ErrIDLimit) || !strings.Contains(fmt.Sprint(err), "corrupt tuple stream") {
		t.Fatalf("Open: %v; want constraint.ErrIDLimit wrapped in \"corrupt tuple stream\"", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("Open allocated %d bytes before refusing the id, want ≤ 1 MB", grew)
	}
}

// TestSaveBesideSnapshot saves while a snapshot of an older version is
// pinned and two goroutines keep re-querying it: Save must succeed, the
// snapshot must answer the same before, during and after, and the saved
// store must reopen as the current version, not the pinned one.
func TestSaveBesideSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(607))
	store := pagestore.NewMemStore(1024)
	rel := constraint.NewRelation(2)
	for i := 0; i < 600; i++ {
		if _, err := rel.Insert(randTuple(rng, true)); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := Build(rel, Options{Slopes: EquiangularSlopes(4), Technique: T2, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]constraint.Query, 40)
	for i := range queries {
		queries[i] = randQuery(rng)
		if i%5 == 0 {
			queries[i].Slope[0] = ix.Slopes()[i/5%4] // restricted path
		}
	}
	type answer struct {
		ids                []constraint.TupleID
		candidates, leaves int
	}
	ask := func(q interface {
		Query(constraint.Query) (Result, error)
	}) ([]answer, error) {
		out := make([]answer, len(queries))
		for i, qu := range queries {
			res, err := q.Query(qu)
			if err != nil {
				return nil, err
			}
			out[i] = answer{res.IDs, res.Stats.Candidates, res.Stats.LeavesSwept}
		}
		return out, nil
	}
	same := func(a, b []answer) bool {
		return slices.EqualFunc(a, b, func(x, y answer) bool {
			return sameIDs(x.ids, y.ids) && x.candidates == y.candidates && x.leaves == y.leaves
		})
	}

	snap := ix.Snapshot()
	defer snap.Release()
	before, err := ask(snap)
	if err != nil {
		t.Fatal(err)
	}
	ids := rel.IDs()
	for i := 0; i < 160; i++ {
		if i%8 == 7 { // a batch now and then, the rest one-op commits
			c := ix.Begin()
			for j := 0; j < 4; j++ {
				if _, err := c.Insert(randTuple(rng, true)); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Commit(); err != nil {
				t.Fatal(err)
			}
		} else if i%3 == 0 {
			j := rng.Intn(len(ids))
			if err := ix.Delete(ids[j]); err != nil {
				t.Fatal(err)
			}
			ids = append(ids[:j], ids[j+1:]...)
		} else if _, err := ix.Insert(randTuple(rng, true)); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if got, err := ask(snap); err != nil || !same(got, before) {
					t.Errorf("snapshot drifted beside Save (err %v)", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 3; i++ { // the second and third Save also free and rewrite the tuple chain
		if err := ix.Save(); err != nil {
			t.Errorf("Save beside a pinned snapshot: %v", err)
		}
	}
	close(done)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if after, err := ask(snap); err != nil || !same(after, before) {
		t.Fatalf("snapshot answers changed across Save (err %v)", err)
	}

	rel2, ix2, err := Open(pagestore.NewPool(store, 512))
	if err != nil {
		t.Fatal(err)
	}
	if err := ix2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !sameIDs(rel2.IDs(), rel.IDs()) || ix2.Len() != ix.Len() || ix2.Pages() != ix.Pages() {
		t.Fatalf("reopened: %d tuples, %d indexed, %d pages; current version %d, %d, %d",
			rel2.Len(), ix2.Len(), ix2.Pages(), rel.Len(), ix.Len(), ix.Pages())
	}
	current, err := ask(ix)
	if err != nil {
		t.Fatal(err)
	}
	reopened, err := ask(ix2)
	if err != nil {
		t.Fatal(err)
	}
	if !same(reopened, current) || same(current, before) {
		t.Fatal("the saved store does not answer as the current version")
	}
	for i, q := range queries {
		if want, _ := q.Eval(rel2); !sameIDs(reopened[i].ids, want) {
			t.Fatalf("%v: reopened index and scan of the reopened relation disagree", q)
		}
	}
}

// TestForeignNodeLayoutFailsLoudly flips the layout byte of saved tree nodes
// — what a page of another format version, or a damaged one, looks like. On
// a root Open fails; on the nodes below, Open may succeed but every query
// that reaches one returns btree.ErrLayout and no answer.
func TestForeignNodeLayoutFailsLoudly(t *testing.T) {
	saved := func(t *testing.T) (*pagestore.MemStore, *Index) {
		rng := rand.New(rand.NewSource(605))
		store := pagestore.NewMemStore(1024)
		rel := constraint.NewRelation(2)
		for i := 0; i < 400; i++ {
			if _, err := rel.Insert(randTuple(rng, true)); err != nil {
				t.Fatal(err)
			}
		}
		ix, err := Build(rel, Options{Slopes: EquiangularSlopes(3), Technique: T2, Store: store})
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Save(); err != nil {
			t.Fatal(err)
		}
		return store, ix
	}
	flip := func(t *testing.T, ix *Index, pages []pagestore.PageID) {
		for _, id := range pages {
			f, err := ix.Pool().Get(id)
			if err != nil {
				t.Fatal(err)
			}
			f.Data()[1] ^= 0xFF // btree/node.go: byte 1 is the layout version
			f.MarkDirty()
			f.Release()
		}
		if err := ix.Pool().Flush(); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("root", func(t *testing.T) {
		store, ix := saved(t)
		flip(t, ix, []pagestore.PageID{ix.trees[len(ix.trees)-1].Meta().Root})
		if _, _, err := Open(pagestore.NewPool(store, 64)); !errors.Is(err, btree.ErrLayout) {
			t.Fatalf("Open over a foreign root: %v, want btree.ErrLayout", err)
		}
	})
	t.Run("below-the-root", func(t *testing.T) {
		store, ix := saved(t)
		var pages []pagestore.PageID
		for _, tr := range ix.trees {
			if tr.Height() != 2 {
				t.Fatalf("tree of height %d: the leaves are not all the nodes below the root", tr.Height())
			}
			if err := tr.VisitLeavesAsc(math.Inf(-1), func(lv btree.LeafView) bool {
				pages = append(pages, lv.Page)
				return true
			}); err != nil {
				t.Fatal(err)
			}
		}
		flip(t, ix, pages)
		_, ix2, err := Open(pagestore.NewPool(store, 64))
		if err != nil {
			t.Fatal(err) // the roots are intact
		}
		rng := rand.New(rand.NewSource(606))
		for qi := 0; qi < 40; qi++ {
			q := randQuery(rng)
			if qi%4 == 0 {
				q.Slope[0] = ix2.Slopes()[qi/4%3] // restricted path
			}
			if res, err := ix2.Query(q); !errors.Is(err, btree.ErrLayout) || res.IDs != nil {
				t.Fatalf("%v: answered %v, err %v; want btree.ErrLayout and no answer", q, res.IDs, err)
			}
		}
	})
}

// TestOpenRefusesPreviousFormatFile opens testdata/dcdb0005.cdb, a file the
// previous format wrote — 100 tuples, k = 3, trees of layout-3 nodes with
// float64 handicap slots and no child bounds. Open must refuse its catalog
// with ErrCatalog, and with the catalog's magic patched to the current one,
// refuse the first layout-3 root with btree.ErrLayout: a typed error either
// way, never a panic or an index.
func TestOpenRefusesPreviousFormatFile(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "dcdb0005.cdb"))
	if err != nil {
		t.Fatal(err)
	}
	open := func(data []byte) error {
		path := filepath.Join(t.TempDir(), "old.cdb")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		store, err := pagestore.OpenExistingFileStore(path, pagestore.DefaultPageSize)
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		_, ix, err := Open(pagestore.NewPool(store, 64))
		if ix != nil {
			t.Fatal("Open returned an index over a previous-format file")
		}
		return err
	}
	if err := open(old); !errors.Is(err, ErrCatalog) || !strings.Contains(err.Error(), "DCDB0005") {
		t.Fatalf("Open of a DCDB0005 file: %v, want ErrCatalog naming its magic", err)
	}
	patched := slices.Clone(old)
	copy(patched, catalogMagic) // page 1, the catalog, is the file's first
	if err := open(patched); !errors.Is(err, btree.ErrLayout) || !strings.Contains(err.Error(), "layout version 3") {
		t.Fatalf("Open of layout-3 trees under a current catalog: %v, want btree.ErrLayout", err)
	}
}

// TestInsertWithID covers the relation restore primitive.
func TestInsertWithID(t *testing.T) {
	rel := constraint.NewRelation(2)
	t1, _ := constraint.ParseTuple("x >= 0", 2)
	if err := rel.InsertWithID(t1, 7); err != nil {
		t.Fatal(err)
	}
	if t1.ID() != 7 {
		t.Fatalf("id = %d", t1.ID())
	}
	t2, _ := constraint.ParseTuple("y >= 0", 2)
	if err := rel.InsertWithID(t2, 7); err == nil {
		t.Fatal("duplicate id must be rejected")
	}
	if err := rel.InsertWithID(t2, 0); err == nil {
		t.Fatal("id 0 must be rejected")
	}
	// The counter advances past restored ids.
	id, err := rel.Insert(t2)
	if err != nil {
		t.Fatal(err)
	}
	if id <= 7 {
		t.Fatalf("next id %d must exceed restored id 7", id)
	}
}

// TestSavedMemStoreOutlivesCommits: commits after a Save free saved pages,
// which the store holds back until the next Save; they must still read, so a
// second Open over the same MemStore — through another pool, with the
// commits unsaved — restores the saved version and answers as the scan over
// the saved relation.
func TestSavedMemStoreOutlivesCommits(t *testing.T) {
	saved, err := workload.GenerateRelation(workload.Config{N: 3000, Size: workload.Small, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	queries, err := workload.GenerateQueries(saved, workload.QueryConfig{Count: 32, Kind: constraint.EXIST, SelectivityLo: 0.10, SelectivityHi: 0.15, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := workload.GenerateRelation(workload.Config{N: 200, Size: workload.Small, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	store := pagestore.NewMemStore(pagestore.DefaultPageSize)
	ix, err := Build(saved, Options{Slopes: EquiangularSlopes(4), Technique: T2, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(); err != nil {
		t.Fatal(err)
	}
	want := make([][]constraint.TupleID, len(queries))
	for i, q := range queries {
		if want[i], err = q.Eval(saved); err != nil {
			t.Fatal(err)
		}
	}
	ids := saved.IDs()
	i := 0
	fresh.Scan(func(tu *constraint.Tuple) bool {
		var nt *constraint.Tuple
		if nt, err = constraint.NewTuple(2, tu.Constraints()); err == nil {
			_, err = ix.Insert(nt)
		}
		if err == nil {
			err = ix.Delete(ids[i*len(ids)/fresh.Len()])
		}
		i++
		return err == nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rel, reopened, err := Open(pagestore.NewPool(store, 256))
	if err != nil {
		t.Fatalf("Open after %d unsaved insert + delete pairs: %v", fresh.Len(), err)
	}
	if !slices.Equal(rel.IDs(), ids) {
		t.Fatalf("reopened relation holds %d ids, the saved one %d", rel.Len(), len(ids))
	}
	for i, q := range queries {
		got, err := reopened.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(got.IDs, want[i]) {
			t.Fatalf("%v: reopened %v, scan over the saved relation %v", q, got.IDs, want[i])
		}
	}
}

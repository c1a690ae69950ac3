package core

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"dualcdb/internal/constraint"
	"dualcdb/internal/pagestore"
)

// FuzzCatalogDecode feeds arbitrary bytes to the two decoders Open runs on
// a file before it touches a tree: parseCatalog over a catalog page image
// and decodeRelation over a tuple stream, with the tuple count the page
// claims (or, when the page is refused, as many as the stream could hold).
// Whatever the bytes, each returns a value or an error — a refused page is
// ErrCatalog — with no panic, no hang, and no allocation sized by a damaged
// field: what both allocate stays within a constant, a per-input-byte
// allowance and the relation's id table for the largest id the stream
// names (ids themselves are capped by constraint.ErrIDLimit).
//
// The seeds are the catalog page and tuple stream of a fresh Save and the
// catalog page of testdata/dcdb0005.cdb (a previous-format file, refused by
// its magic), in the checked-in corpus too, which adds a stream claiming
// 65 536 constraints it has no bytes for and one naming an id near the limit.
func FuzzCatalogDecode(f *testing.F) {
	page, stream := savedCatalog(f)
	f.Add(page, stream)
	old, err := os.ReadFile(filepath.Join("testdata", "dcdb0005.cdb"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(old[:pagestore.DefaultPageSize], stream)
	f.Fuzz(func(t *testing.T, page, stream []byte) {
		count := len(stream)/8 + 1
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cat, err := parseCatalog(page)
		switch {
		case err != nil && !errors.Is(err, ErrCatalog):
			t.Fatalf("parseCatalog: %v, want ErrCatalog", err)
		case err == nil:
			count = cat.count
			if want := len(cat.opt.Slopes); want < 1 || want > maxPersistK || len(cat.metas) != 2*want {
				t.Fatalf("parseCatalog accepted %d slopes and %d trees", want, len(cat.metas))
			}
		}
		rel, err := decodeRelation(stream, count, 2)
		runtime.ReadMemStats(&after)
		if err == nil && rel.Len() > count {
			t.Fatalf("decoded %d tuples from a stream of %d", rel.Len(), count)
		}
		limit := 64<<10 + 1<<10*uint64(len(stream)) + idTableBytes(stream, count)
		if got := after.TotalAlloc - before.TotalAlloc; got > limit {
			t.Fatalf("decoding a %d-byte page and a %d-byte stream allocated %d bytes, more than %d", len(page), len(stream), got, limit)
		}
	})
}

// idTableBytes bounds what a relation's id table allocates growing to the
// largest id the stream's tuple headers name: a spine pointer per 256 ids,
// reallocated as the spine grows one chunk at a time (eight times the final
// size covers append's growth and size-class rounding), plus a chunk per
// tuple.
func idTableBytes(stream []byte, count int) uint64 {
	maxID, tuples := uint64(0), uint64(0)
	for off := 0; tuples < uint64(count) && off+8 <= len(stream); tuples++ {
		maxID = max(maxID, uint64(binary.LittleEndian.Uint32(stream[off:])))
		off += 8 + int(binary.LittleEndian.Uint32(stream[off+4:]))*(1+8+8*2)
	}
	return 8*8*(maxID/256+1) + 2<<10*tuples
}

// savedCatalog saves a small relation and returns the catalog page and
// tuple stream Open would read back.
func savedCatalog(tb testing.TB) (page, stream []byte) {
	rng := rand.New(rand.NewSource(1))
	rel := constraint.NewRelation(2)
	for i := 0; i < 20; i++ {
		if _, err := rel.Insert(randTuple(rng, i%4 == 0)); err != nil {
			tb.Fatal(err)
		}
	}
	ix, err := Build(rel, Options{Slopes: EquiangularSlopes(3), Technique: T2})
	if err != nil {
		tb.Fatal(err)
	}
	if err := ix.Save(); err != nil {
		tb.Fatal(err)
	}
	f, err := ix.pool.Get(catalogPage)
	if err != nil {
		tb.Fatal(err)
	}
	page = append([]byte(nil), f.Data()...)
	f.Release()
	stream, _, err = readChain(ix.pool, ix.tupleChain)
	if err != nil {
		tb.Fatal(err)
	}
	return page, stream
}

// TestDecodeRelationRefusesUnbackedConstraintCount: a tuple header claiming
// the largest constraint count decodeRelation accepts, with no constraint
// bytes behind it, is refused before the constraint slice is sized by the
// claim (65 536 constraints would be ~2.6 MB).
func TestDecodeRelationRefusesUnbackedConstraintCount(t *testing.T) {
	stream := make([]byte, 8)
	binary.LittleEndian.PutUint32(stream[0:4], 1)
	binary.LittleEndian.PutUint32(stream[4:8], 1<<16)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := decodeRelation(stream, 1, 2)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a stream claiming 65536 constraints in 8 bytes decoded")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("refusing it allocated %d bytes, want < 64 KB", got)
	}
}

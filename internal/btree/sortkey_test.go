package btree

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// hardKeys are stored keys at the edges of the packed order: both zeros and
// infinities, float32's smallest and largest subnormals and normals, and
// their negations.
var hardKeys = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	0x1p-149, -0x1p-149, 0x1p-126 - 0x1p-149, -(0x1p-126 - 0x1p-149),
	0x1p-126, -0x1p-126, math.MaxFloat32, -math.MaxFloat32, 1, -1,
}

// sortCase draws n entries: keys from hardKeys, from a few repeated values and
// at random, TIDs in no order and each used once — so that entries Compare
// holds equal are the same bits — but for a few exact copies of an entry.
func sortCase(rng *rand.Rand, n int) []Entry {
	tids := rng.Perm(n)
	es := make([]Entry, n)
	for i := range es {
		var k float64
		switch rng.Intn(4) {
		case 0:
			k = hardKeys[rng.Intn(len(hardKeys))]
		case 1:
			k = float64(rng.Intn(5) - 2) // duplicate keys, ±0 among them
			if k == 0 && rng.Intn(2) == 0 {
				k = math.Copysign(0, -1)
			}
		default:
			k = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(80)-40))
		}
		tid := uint32(tids[i]) * 2654435761 // spread over the whole uint32 range
		es[i] = Entry{Key: RoundKey(k), TID: tid}
	}
	for i := 0; i < n/50; i++ {
		es[rng.Intn(n)] = es[rng.Intn(n)]
	}
	return es
}

// entryBits is the composite order's entries as a leaf stores them, keys'
// sign bits included.
func entryBits(es []Entry) []byte {
	out := make([]byte, 0, len(es)*entrySize)
	for _, e := range es {
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(float32(e.Key)))
		out = binary.LittleEndian.AppendUint32(out, e.TID)
	}
	return out
}

// TestBulkLoadSortMatchesCompare requires BulkLoad's sort — integers packed by
// sortKey, radix-sorted, −0's sign restored, or nothing done to entries
// already in order — to leave the very entries slices.SortFunc(entries,
// Entry.Compare) leaves, bit for bit, in the slice and in the leaves:
// duplicate keys, ±0 under interleaved TIDs, ±Inf, subnormals and TIDs in no
// order.
func TestBulkLoadSortMatchesCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for _, n := range []int{1, 2, 3, 17, 300, 5000} {
		for rep := 0; rep < 4; rep++ {
			es := sortCase(rng, n)
			want := slices.Clone(es)
			slices.SortFunc(want, Entry.Compare)

			// Entries in no order, in order, and in order but for one
			// neighbouring pair.
			inputs := [][]Entry{slices.Clone(es), slices.Clone(want)}
			if n >= 2 {
				swapped := slices.Clone(want)
				i := rng.Intn(n - 1)
				swapped[i], swapped[i+1] = swapped[i+1], swapped[i]
				inputs = append(inputs, swapped)
			}
			for _, got := range inputs {
				sortEntries(got)
				if g, w := entryBits(got), entryBits(want); string(g) != string(w) {
					i := firstDiff(got, want)
					t.Fatalf("n=%d: sorted entry %d is %v, SortFunc's %v", n, i, got[min(i, n-1)], want[min(i, n-1)])
				}
			}

			tr, _ := newTestTree(t, 256, nil)
			if err := tr.BulkLoad(slices.Clone(es)); err != nil {
				t.Fatal(err)
			}
			var leaves []byte
			if err := tr.VisitLeavesAsc(math.Inf(-1), func(lv LeafView) bool {
				leaves = append(leaves, lv.Entries()...)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if string(leaves) != string(entryBits(want)) {
				t.Fatalf("n=%d: the leaves' bytes are not SortFunc's order", n)
			}
		}
	}
}

// TestLeavesOfMatchesSearch requires SetHandicaps' binning to send every route
// key to the leaf sort.Search over the separators' Entry.Less sends it to —
// the leaf a descent for {key, TID 0} ends in: at every separator's own key
// (a separator with TID 0 among them, which an equal route key passes), one
// float32 step either side of it, at ±0, ±Inf, NaN and at random, over the
// separators of a real tree and over drawn ones.
func TestLeavesOfMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	tr, _ := newTestTree(t, 256, nil)
	for i := 0; i < 3000; i++ {
		if err := tr.Insert(float64(i%500)-250, uint32(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	treeSeps, err := tr.appendSeparators(nil, tr.root, tr.hgt)
	if err != nil {
		t.Fatal(err)
	}
	sepSets := [][]Entry{nil, {{Key: 0, TID: 0}}}
	var fromTree []Entry
	for _, l := range walkLeaves(t, tr)[1:] {
		fromTree = append(fromTree, *l.lo)
	}
	sepSets = append(sepSets, fromTree)
	for _, n := range []int{0, 1, 2, 5, 64, 200} {
		drawn := sortCase(rng, n+1)
		for i := range drawn {
			if rng.Intn(4) == 0 {
				drawn[i].TID = 0
			}
		}
		slices.SortFunc(drawn, Entry.Compare)
		sepSets = append(sepSets, slices.CompactFunc(drawn, func(a, b Entry) bool { return a.Compare(b) == 0 }))
	}

	for si, seps := range sepSets {
		packed := make([]uint64, len(seps))
		for i, s := range seps {
			packed[i] = sortKey(s.Key, s.TID)
		}
		if si == 2 && !slices.Equal(packed, treeSeps) {
			t.Fatalf("appendSeparators disagrees with the tree's leaf bounds")
		}
		keys := append([]float64{math.NaN()}, hardKeys...)
		for _, s := range seps {
			k := float32(s.Key)
			keys = append(keys, s.Key, float64(math.Nextafter32(k, float32(math.Inf(1)))), float64(math.Nextafter32(k, float32(math.Inf(-1)))))
		}
		for range 500 {
			keys = append(keys, rng.NormFloat64()*300)
		}
		for i := 0; i < len(keys); i += 8 {
			var probes [8]uint64
			batch := keys[i:min(i+8, len(keys))]
			for j, k := range batch {
				probes[j] = probe(k)
			}
			got := leavesOf(packed, &probes)
			for j, k := range batch {
				e := Entry{Key: RoundKey(k), TID: 0}
				want := sort.Search(len(seps), func(i int) bool { return e.Less(seps[i]) })
				if got[j] != want {
					t.Fatalf("separators %d (%d of them): key %v goes to leaf %d, sort.Search's %d", si, len(seps), k, got[j], want)
				}
			}
		}
	}
}

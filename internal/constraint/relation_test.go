package constraint

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"unsafe"
)

// Tests of the relation's one store: the mutable head, its frozen views and
// the copy-on-write rule between them (DESIGN.md §20).

// TestViewIsTwoWordsOverASlice pins the size the read path was measured at: a
// fifth word (the live count, say) makes View too large for the compiler to
// keep in registers, and every inlined lookup copies it through the stack.
func TestViewIsTwoWordsOverASlice(t *testing.T) {
	if got := unsafe.Sizeof(View{}); got != 32 {
		t.Fatalf("View is %d bytes, want 32", got)
	}
}

// frozenState is a view with what the relation held when it was taken.
type frozenState struct {
	what string
	view View
	live int
	ts   map[TupleID]*Tuple
}

func freezeState(r *Relation, what string) frozenState {
	s := frozenState{what: what, view: r.Freeze(), live: r.Len(), ts: map[TupleID]*Tuple{}}
	r.Scan(func(tp *Tuple) bool {
		s.ts[tp.ID()] = tp
		return true
	})
	return s
}

// verify checks Get over every id the view could hold and a chunk past it,
// LiveWord against Get over the same ids, Scan's ids and order, and MaxID. It
// reports through t.Errorf only: readers call it off the test's goroutine.
func (s frozenState) verify(t *testing.T) {
	var want []TupleID
	for id := TupleID(0); int(id) <= s.view.MaxID()+chunkSize; id++ {
		if got := s.view.Get(id); got != s.ts[id] {
			t.Errorf("%s: Get(%d) = %p, the view was frozen holding %p", s.what, id, got, s.ts[id])
			return
		}
		if s.ts[id] != nil {
			want = append(want, id)
		}
	}
	for w := -1; w <= (s.view.MaxID()+chunkSize)/64; w++ { // word −1 reads 0
		var live uint64
		for j := 0; j < 64 && w >= 0; j++ {
			if s.view.Get(TupleID(64*w+j)) != nil {
				live |= 1 << j
			}
		}
		if got := s.view.LiveWord(w); got != live {
			t.Errorf("%s: LiveWord(%d) = %#x, Get holds %#x", s.what, w, got, live)
			return
		}
	}
	var scanned []TupleID
	s.view.Scan(func(tp *Tuple) bool {
		scanned = append(scanned, tp.ID())
		return true
	})
	if !slices.Equal(scanned, want) || len(want) != s.live {
		t.Errorf("%s: Scan gave %d ids %v, the view was frozen holding %d: %v", s.what, len(scanned), scanned, s.live, want)
	}
	if len(want) > 0 && s.view.MaxID() < int(want[len(want)-1]) {
		t.Errorf("%s: MaxID %d below the view's id %d", s.what, s.view.MaxID(), want[len(want)-1])
	}
}

// TestFreezeRestoreCopyOnWrite drives the head over the edges of its 256-id
// chunks — Insert across ids 255, 256 and 257, Delete under views that share
// the chunk, InsertWithID across a gap of never-written chunks and back into
// it — and requires every view taken along the way to hold exactly what the
// relation held then, tuples and live bits, after all later writes and beside
// them (run it under -race: two readers re-read the views while the head
// keeps writing). Restore must give back Len, Get, Scan and IDs of the view it
// is handed, leave that view alone under the writes that follow, and not hand
// back a burned id.
func TestFreezeRestoreCopyOnWrite(t *testing.T) {
	r := NewRelation(2)
	var states []frozenState
	freeze := func(what string) {
		states = append(states, freezeState(r, what))
	}
	verifyAll := func() {
		t.Helper()
		for _, s := range states {
			s.verify(t)
		}
		if t.Failed() {
			t.FailNow()
		}
	}
	insert := func(want TupleID) {
		t.Helper()
		if id, err := r.Insert(mustTuple(t, "x >= 0 && y >= 0")); err != nil || id != want {
			t.Fatalf("Insert: id %d, %v; want id %d", id, err, want)
		}
	}
	insertAt := func(id TupleID) {
		t.Helper()
		if err := r.InsertWithID(mustTuple(t, "x <= 0"), id); err != nil {
			t.Fatal(err)
		}
	}
	remove := func(id TupleID) {
		t.Helper()
		if err := r.Delete(id); err != nil {
			t.Fatal(err)
		}
	}

	freeze("empty")
	for id := TupleID(1); id <= 254; id++ {
		insert(id)
	}
	// A slot is the id itself: the first chunk's last slot (live bit 63 of
	// word 3), then the second chunk's first two (bits 0 and 1 of word 4).
	for id := TupleID(255); id <= 257; id++ {
		freeze("before an insert")
		insert(id)
		if got, want := len(r.head.spine), int(id)/chunkSize+1; got != want {
			t.Fatalf("id %d under a spine of %d chunks, want %d", id, got, want)
		}
		verifyAll()
	}
	freeze("257 ids")
	if got := len(states[len(states)-1].view.spine); got != 2 {
		t.Fatalf("257 ids under a spine of %d chunks, want 2", got)
	}

	// Deletes on both sides of the boundary, under the views that hold them.
	for _, id := range []TupleID{256, 1, 257} {
		remove(id)
		verifyAll()
	}
	mid := freezeState(r, "after the deletes")
	states = append(states, mid)

	// Across a gap: chunk 4 is written, chunks 2 and 3 never were and stay
	// the shared all-nil chunk; then back into the gap, out of id order.
	insertAt(1100)
	freeze("past a gap")
	if v := states[len(states)-1].view; len(v.spine) != 5 || v.spine[2] != &noTuples || v.spine[3] != &noTuples || v.MaxID() != 1100 {
		t.Fatalf("id 1100 after 257: %d chunks over %d ids, gap chunks %p %p; want 5 over 1100 and the shared %p twice", len(v.spine), v.MaxID(), v.spine[2], v.spine[3], &noTuples)
	}
	insertAt(600)
	remove(255)
	freeze("into the gap")
	verifyAll()
	if ids := r.IDs(); !slices.IsSorted(ids) || len(ids) != r.Len() || ids[len(ids)-2] != 600 {
		t.Fatalf("IDs %v: want %d ids in increasing order with 600 before 1100", ids, r.Len())
	}

	// Restore: the relation is the view again, except that ids stay consumed.
	r.Restore(mid.view, mid.live)
	restored := freezeState(r, "restored")
	var held []TupleID
	for id := TupleID(0); id <= 1400; id++ {
		if got, err := r.Get(id); got != mid.ts[id] || (got == nil) != errors.Is(err, ErrNotFound) {
			t.Fatalf("after Restore: Get(%d) = %p, %v; the view holds %p", id, got, err, mid.ts[id])
		}
		if mid.ts[id] != nil {
			held = append(held, id)
		}
	}
	if restored.live != mid.live || !slices.Equal(r.IDs(), held) {
		t.Fatalf("after Restore: Len %d, IDs %v; the view holds %d: %v", restored.live, r.IDs(), mid.live, held)
	}
	states = append(states, restored)
	insert(1101) // not 258, not 601: burned ids stay burned
	remove(2)    // a chunk the restored view shares
	freeze("after the restore")
	verifyAll()

	// Readers re-read every view while the head keeps nilling and filling
	// slots of the chunks they share.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				for _, s := range states {
					select {
					case <-stop:
						return
					default:
						s.verify(t)
					}
				}
			}
		}()
	}
	for i := 0; i < 40; i++ {
		remove(TupleID(3 + 6*i))
		insert(TupleID(1102 + i))
		if i%8 == 0 {
			r.Freeze()
		}
	}
	close(stop)
	wg.Wait()
	freeze("at the end")
	verifyAll()
}

// TestRelationIDLimit: the limit is the last id accepted; past it Insert and
// InsertWithID return ErrIDLimit and the relation stays as it was.
func TestRelationIDLimit(t *testing.T) {
	r := NewRelation(2)
	if err := r.InsertWithID(mustTuple(t, "x >= 0"), maxTupleID+1); !errors.Is(err, ErrIDLimit) {
		t.Fatalf("InsertWithID past the limit: %v, want ErrIDLimit", err)
	}
	if err := r.InsertWithID(mustTuple(t, "x >= 0"), 0x7fffffff); !errors.Is(err, ErrIDLimit) {
		t.Fatalf("InsertWithID(0x7fffffff): %v, want ErrIDLimit", err)
	}
	if r.Len() != 0 || r.Freeze().MaxID() != 0 {
		t.Fatalf("refused ids left %d tuples over %d ids", r.Len(), r.Freeze().MaxID())
	}
	last := mustTuple(t, "x >= 0")
	if err := r.InsertWithID(last, maxTupleID); err != nil {
		t.Fatal(err)
	}
	fresh := mustTuple(t, "y >= 0")
	if id, err := r.Insert(fresh); !errors.Is(err, ErrIDLimit) || id != 0 || fresh.ID() != 0 {
		t.Fatalf("Insert with every id assigned: id %d, %v; want ErrIDLimit and the tuple left unowned", id, err)
	}
	if got, _ := r.Get(maxTupleID); got != last || r.Len() != 1 {
		t.Fatalf("at the limit: Get %p, Len %d; want %p, 1", got, r.Len(), last)
	}
}

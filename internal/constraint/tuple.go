// Package constraint implements the linear-constraint database model of
// Section 2 of the paper: generalized tuples (conjunctions of linear
// constraints over d real variables), generalized relations, a textual
// constraint syntax, and the exact ALL/EXIST selection predicates of
// Proposition 2.2 that serve both as ground truth for tests and as the
// refinement step of the approximate index techniques.
package constraint

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"dualcdb/internal/geom"
)

// TupleID identifies a generalized tuple within a relation.
type TupleID uint32

// Tuple is a generalized tuple: the conjunction of its linear constraints.
// Its extension — the set of solution points — is a convex polyhedron,
// possibly unbounded or empty.
//
// A Tuple caches its extension and the extension's packed generators, which
// every value the index needs is computed from: refinement's TOP^P/BOT^P,
// the tree keys and (in E²) the handicap routing keys over half strips
// (StripExtrema). It is immutable after creation and safe for concurrent use.
type Tuple struct {
	// dim, once and gen lead the struct: they are all Query.Matches reads.
	dim  int
	once sync.Once
	gen  geom.Generators
	err  error

	id   TupleID
	cons []geom.HalfSpace
	ext  geom.Polyhedron

	// noHRep: cons does not define ext (FromPolyhedron over generators only).
	noHRep bool
}

// NewTuple builds a generalized tuple in E^dim from the given constraints.
// The constraint slice is copied. Equality constraints should already be
// normalized into inequality pairs (the parser does this).
func NewTuple(dim int, cons []geom.HalfSpace) (*Tuple, error) {
	if dim < 1 {
		return nil, fmt.Errorf("constraint: invalid dimension %d", dim)
	}
	for _, h := range cons {
		if h.Dim() != dim {
			return nil, fmt.Errorf("constraint: constraint %v has dimension %d, want %d", h, h.Dim(), dim)
		}
	}
	return &Tuple{dim: dim, cons: append([]geom.HalfSpace(nil), cons...)}, nil
}

// FromPolyhedron wraps an existing polyhedron as a tuple. One without an
// H-representation (geom.FromVertices with a ray) makes a tuple without
// constraints: it evaluates exactly, from its generators, but cannot be
// written down — HasHRep reports false and String says "true".
func FromPolyhedron(p geom.Polyhedron) *Tuple {
	t := &Tuple{dim: p.Dim(), cons: append([]geom.HalfSpace(nil), p.HS...), ext: p, noHRep: p.HS == nil}
	t.once.Do(t.pack)
	return t
}

// ID returns the tuple's identifier within its relation (0 before insertion).
func (t *Tuple) ID() TupleID { return t.id }

// Dim returns the dimension of the tuple's variable space.
func (t *Tuple) Dim() int { return t.dim }

// Constraints returns the defining constraints (not to be modified).
func (t *Tuple) Constraints() []geom.HalfSpace { return t.cons }

// HasHRep reports whether Constraints defines the tuple's extension: always,
// except for a FromPolyhedron tuple over a polyhedron with no
// H-representation.
func (t *Tuple) HasHRep() bool { return !t.noHRep }

// resolve computes the extension and its packed generators once.
func (t *Tuple) resolve() error {
	t.once.Do(func() {
		if t.ext, t.err = geom.FromHalfSpaces(t.cons, t.dim); t.err == nil {
			t.pack()
		}
	})
	return t.err
}

// pack packs the extension's generators; its vertices and rays then point
// into that array and its H-representation aliases t.cons: no second copy.
func (t *Tuple) pack() {
	t.gen = t.ext.Pack()
	if t.ext.HS != nil {
		t.ext.HS = t.cons
	}
}

// Extension returns the tuple's extension as a polyhedron in V- and
// H-representation. The computation runs once and is cached.
func (t *Tuple) Extension() (geom.Polyhedron, error) {
	err := t.resolve()
	return t.ext, err
}

// IsSatisfiable reports whether the tuple's extension is non-empty.
func (t *Tuple) IsSatisfiable() bool {
	return t.resolve() == nil && !t.gen.IsEmpty()
}

// IsBounded reports whether the tuple's extension is bounded (a finite
// object in the paper's terminology).
func (t *Tuple) IsBounded() bool {
	return t.resolve() == nil && t.ext.IsBounded()
}

// generators resolves the tuple for an evaluation in a direction of n
// coordinates, the tuple's dimension; on error they are the empty set's.
func (t *Tuple) generators(n int) (*geom.Generators, error) {
	if n != t.dim {
		return new(geom.Generators), fmt.Errorf("constraint: direction of dimension %d, tuple dimension %d", n, t.dim)
	}
	return &t.gen, t.resolve()
}

// Top evaluates TOP^P at the query slope vector (length dim−1), with the
// bits of Extension().Top and no allocation.
func (t *Tuple) Top(slope []float64) (float64, error) {
	g, err := t.generators(len(slope) + 1)
	return g.Top(slope), err
}

// Bot evaluates BOT^P at the query slope vector (length dim−1).
func (t *Tuple) Bot(slope []float64) (float64, error) {
	g, err := t.generators(len(slope) + 1)
	return g.Bot(slope), err
}

// Tangents returns the x of the vertex attaining TOP^P and BOT^P of a 2-D
// tuple at the slope b, NaN where the surface is not finite there
// (geom.Generators.Tangents).
func (t *Tuple) Tangents(b float64) (top, bot float64, err error) {
	g, err := t.generators(2)
	top, bot = g.Tangents(b)
	return top, bot, err
}

// Support returns sup c·p over the tuple's extension for a direction c of
// length dim: +Inf along a recession ray, −Inf for an empty extension.
func (t *Tuple) Support(c []float64) (float64, error) {
	g, err := t.generators(len(c))
	if err != nil {
		return 0, err
	}
	return g.Support(c), nil
}

// StripExtrema returns the extrema of TOP^P and BOT^P of a 2-D tuple over the
// half strips [lo, a] and [a, hi], from the same generators as Top and Bot
// and without allocating (geom.Generators.StripExtrema).
func (t *Tuple) StripExtrema(lo, a, hi float64) (top, bot geom.HalfStrips, err error) {
	g, err := t.generators(2)
	top, bot = g.StripExtrema(lo, a, hi)
	return top, bot, err
}

// TopEnv returns the TOP^P envelope of a 2-D tuple as a function of the
// query slope, built on every call: nothing in the engine evaluates one. It
// is the reference tests and bench/ compare the kernel with, until bench/
// replays Tuple.Top instead (ROADMAP 2(h)). It panics for dim ≠ 2.
func (t *Tuple) TopEnv() geom.Envelope { return geom.TopEnvelope2(t.extension2()) }

// BotEnv returns the BOT^P envelope of a 2-D tuple, built on every call like
// TopEnv's.
func (t *Tuple) BotEnv() geom.Envelope { return geom.BotEnvelope2(t.extension2()) }

// extension2 is the extension of a 2-D tuple, empty on error.
func (t *Tuple) extension2() geom.Polyhedron {
	if t.dim != 2 {
		panic("constraint: TOP/BOT envelopes are defined for 2-D tuples only")
	}
	ext, err := t.Extension()
	if err != nil {
		return geom.EmptyPolyhedron(2)
	}
	return ext
}

// String renders the tuple in the textual constraint syntax.
func (t *Tuple) String() string {
	if len(t.cons) == 0 {
		return "true"
	}
	parts := make([]string, len(t.cons))
	for i, h := range t.cons {
		parts[i] = formatConstraint(h)
	}
	return strings.Join(parts, " && ")
}

// ErrNotFound is returned when a tuple id is absent from a relation.
var ErrNotFound = errors.New("constraint: tuple not found")

// maxTupleID is the largest id a relation assigns or accepts. Everything
// sized by the largest id — a relation's spine, and an index's x-extent table
// and candidate bitset — is therefore bounded (512 KB, 256 MB and 2 MB at the
// limit), whatever id a damaged file claims.
const maxTupleID TupleID = 1 << 24

// ErrIDLimit is returned by Insert and InsertWithID for an id past the limit
// of 1<<24.
var ErrIDLimit = errors.New("constraint: tuple id beyond the relation's id limit")

// The store of a relation is a persistent id → tuple table: fixed-size chunks
// under a spine, slot id mod chunkSize of chunk id / chunkSize holding the
// tuple with that id (nil: deleted, or never assigned; slot 0 of chunk 0,
// id 0, is never written) and its live bit. A chunk a View can reach is never
// written.
const (
	chunkBits = 8
	chunkSize = 1 << chunkBits
	// chunkWords is the number of live words a chunk holds: word w of a View
	// (LiveWord) is word w mod chunkWords of chunk w / chunkWords.
	chunkWords = chunkSize / 64
)

// chunk holds arrays, not slices: a lookup is two dependent loads. Bit i mod
// 64 of live[i / 64] is set exactly when t[i] is not nil, so live word w of a
// View covers ids 64w … 64w+63 — the words of a bitset over ids.
type chunk struct {
	t    [chunkSize]*Tuple
	live [chunkWords]uint64
}

// noTuples stands in the spine for every chunk nothing was ever written to:
// shared by all relations, never written.
var noTuples chunk

// View is one immutable state of a relation (Relation.Freeze): safe for
// concurrent use, unaffected by later writes to the relation, and sharing
// every chunk those writes do not touch with the states before and after it.
// It is two words over a slice so that it stays in registers when passed by
// value; the tuple count travels beside it (Relation.Len at the freeze).
type View struct {
	spine []*chunk
	n     int // ids 1..n have a slot
}

// MaxID returns the largest id the view has a slot for: every tuple's id is
// in 1..MaxID.
func (v View) MaxID() int { return v.n }

// Get returns the tuple with the given id, nil when the view holds none.
func (v View) Get(id TupleID) *Tuple {
	if uint(id)-1 >= uint(v.n) {
		return nil
	}
	return v.spine[id>>chunkBits].t[id&(chunkSize-1)]
}

// LiveWord returns the view's live bits for ids 64w … 64w+63: bit j is set
// exactly when Get(64w+j) is not nil. It is 0 past the spine.
func (v View) LiveWord(w int) uint64 {
	c := w >> (chunkBits - 6)
	if uint(c) >= uint(len(v.spine)) {
		return 0
	}
	return v.spine[c].live[w&(chunkWords-1)]
}

// Scan calls fn for every tuple in id order until it returns false.
func (v View) Scan(fn func(*Tuple) bool) {
	for _, ch := range v.spine {
		for _, t := range ch.t {
			if t != nil && !fn(t) {
				return
			}
		}
	}
}

// Relation is a generalized relation: a mutable set of generalized tuples
// sharing one variable space. Tuple IDs are assigned on insertion and never
// reused.
//
// It is the mutable head of the table its Views are frozen states of: a write
// copies the chunk it lands in unless the head has copied or created that
// chunk since the last Freeze, so it costs one chunk at most and no View ever
// changes. A Relation is not safe for concurrent use; its Views are.
type Relation struct {
	dim    int
	nextID TupleID
	head   View // the spine is the head's own: no View shares it
	live   int
	// frozen is the spine of the last View handed out or restored: a chunk the
	// head still shares with it (or with noTuples) is copied before a write.
	frozen []*chunk
}

// NewRelation creates an empty relation over E^dim.
func NewRelation(dim int) *Relation {
	return &Relation{dim: dim, nextID: 1}
}

// Dim returns the dimension of the relation's variable space.
func (r *Relation) Dim() int { return r.dim }

// Len returns the number of tuples.
func (r *Relation) Len() int { return r.live }

// Freeze returns the relation's current state. Later writes leave it as it is.
func (r *Relation) Freeze() View {
	r.frozen = make([]*chunk, len(r.head.spine))
	copy(r.frozen, r.head.spine)
	return View{spine: r.frozen, n: r.head.n}
}

// Restore sets the relation back to a state Freeze returned, live being Len
// at that freeze — how an index aborts a batch. Every write since is dropped,
// whoever made it: only one index may write to a relation. Ids assigned since
// stay consumed.
func (r *Relation) Restore(v View, live int) {
	r.head = View{spine: append([]*chunk(nil), v.spine...), n: v.n}
	r.frozen = v.spine
	r.live = live
}

// set writes slot id of the head and its live bit, growing the spine to
// reach it and copying the chunk first when a View may share it.
func (r *Relation) set(id TupleID, t *Tuple) {
	c := int(id >> chunkBits)
	for len(r.head.spine) <= c {
		r.head.spine = append(r.head.spine, &noTuples)
	}
	r.head.n = max(r.head.n, int(id))
	ch := r.head.spine[c]
	if ch == &noTuples || c < len(r.frozen) && ch == r.frozen[c] {
		own := *ch
		ch = &own
		r.head.spine[c] = ch
	}
	i := id & (chunkSize - 1)
	ch.t[i] = t
	if t != nil {
		ch.live[i/64] |= 1 << (i % 64)
	} else {
		ch.live[i/64] &^= 1 << (i % 64)
	}
}

// admit checks that t may enter the relation.
func (r *Relation) admit(t *Tuple) error {
	if t.dim != r.dim {
		return fmt.Errorf("constraint: tuple dimension %d != relation dimension %d", t.dim, r.dim)
	}
	if t.id != 0 {
		return fmt.Errorf("constraint: tuple %d already belongs to a relation", t.id)
	}
	return nil
}

// Insert adds a tuple and assigns it a fresh ID, which is also returned.
func (r *Relation) Insert(t *Tuple) (TupleID, error) {
	if err := r.admit(t); err != nil {
		return 0, err
	}
	if r.nextID > maxTupleID {
		return 0, fmt.Errorf("%w: %d ids assigned", ErrIDLimit, maxTupleID)
	}
	t.id = r.nextID
	r.nextID++
	r.set(t.id, t)
	r.live++
	return t.id, nil
}

// InsertWithID adds a tuple under a specific id — used when restoring a
// persisted relation, so references from saved indexes stay valid. The id
// must be unused; the internal id counter advances past it.
func (r *Relation) InsertWithID(t *Tuple, id TupleID) error {
	if err := r.admit(t); err != nil {
		return err
	}
	if id == 0 {
		return fmt.Errorf("constraint: id 0 is reserved")
	}
	if id > maxTupleID {
		return fmt.Errorf("%w: id %d > %d", ErrIDLimit, id, maxTupleID)
	}
	if r.head.Get(id) != nil {
		return fmt.Errorf("constraint: id %d already in use", id)
	}
	t.id = id
	r.set(id, t)
	r.live++
	if id >= r.nextID {
		r.nextID = id + 1
	}
	return nil
}

// Delete removes the tuple with the given id.
func (r *Relation) Delete(id TupleID) error {
	if r.head.Get(id) == nil {
		return ErrNotFound
	}
	r.set(id, nil)
	r.live--
	return nil
}

// Get returns the tuple with the given id.
func (r *Relation) Get(id TupleID) (*Tuple, error) {
	if t := r.head.Get(id); t != nil {
		return t, nil
	}
	return nil, ErrNotFound
}

// Scan calls fn for every tuple in id order; a false return stops the scan
// early.
func (r *Relation) Scan(fn func(*Tuple) bool) { r.head.Scan(fn) }

// IDs returns all tuple ids in increasing order.
func (r *Relation) IDs() []TupleID {
	ids := make([]TupleID, 0, r.live)
	r.head.Scan(func(t *Tuple) bool {
		ids = append(ids, t.id)
		return true
	})
	return ids
}

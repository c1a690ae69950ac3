package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"dualcdb/internal/constraint"
	"dualcdb/internal/geom"
	"dualcdb/internal/pagestore"
)

// boxTuple is lo ≤ x ≤ hi, coordinate by coordinate, by its constraints: a
// point where the two meet, unsatisfiable where they cross.
func boxTuple(t testing.TB, lo, hi geom.Point) *constraint.Tuple {
	t.Helper()
	var hs []geom.HalfSpace
	for i := range lo {
		a := make([]float64, len(lo))
		a[i] = 1
		hs = append(hs, geom.HalfSpace{A: a, C: -lo[i], Op: geom.GE}, geom.HalfSpace{A: a, C: -hi[i], Op: geom.LE})
	}
	tp, err := constraint.NewTuple(len(lo), hs)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// box2 is the rectangle [x0, x1] × [y0, y1].
func box2(t testing.TB, x0, x1, y0, y1 float64) *constraint.Tuple {
	return boxTuple(t, geom.Point{x0, y0}, geom.Point{x1, y1})
}

// underVertices is the region under the given vertices: the ray keeps every
// one of them a generator, however close they lie.
func underVertices(t testing.TB, verts []geom.Point) *constraint.Tuple {
	t.Helper()
	p, err := geom.FromVertices(verts, []geom.Point{{0, -1}})
	if err != nil {
		t.Fatal(err)
	}
	return constraint.FromPolyhedron(p)
}

// TestTupleRangeIsEnforced: the range T2's margin is a bound over is checked
// where tuples enter an index. A generator coordinate beyond 1e6 or not
// finite is ErrTupleRange from Commit.Insert, Build, BuildD and Open — the
// tuple is never indexed, the relation and the index stay as they were —
// while a 40-gon, 30 and 31 vertices within Eps of one another in x (the
// envelope would merge their dual lines; routes come from the kernel, which
// does not), a tuple right at the limits and an unsatisfiable tuple with huge
// constants are accepted, and every answer over them is the scan's on the
// restricted, T2 in-strip, T2 outside and T1 paths.
func TestTupleRangeIsEnforced(t *testing.T) {
	chained := func(n int) *constraint.Tuple { // n vertices, 2e-11 apart in x
		verts := make([]geom.Point, n)
		for i := range verts {
			verts[i] = geom.Point{2e-11 * float64(i), 10 - 1e-3*float64(i*i)}
		}
		return underVertices(t, verts)
	}
	gon := make([]geom.Point, 40)
	for i := range gon {
		ang := 2*math.Pi*float64(i)/40 + 0.01
		gon[i] = geom.Point{30 * math.Cos(ang), 30 * math.Sin(ang)}
	}
	polygon, err := geom.FromVertices(gon, nil)
	if err != nil {
		t.Fatal(err)
	}
	nan := underVertices(t, []geom.Point{{0, 0}, {1, math.NaN()}})
	cases := []struct {
		name string
		tp   func() *constraint.Tuple
		ok   bool
	}{
		{"coordinate-beyond-1e6", func() *constraint.Tuple { return box2(t, 0, 1, 0, 1e6+1) }, false},
		{"negative-coordinate", func() *constraint.Tuple { return box2(t, -2e6, 1, 0, 1) }, false},
		{"nan-coordinate", func() *constraint.Tuple { return nan }, false},
		{"31-chained-vertices", func() *constraint.Tuple { return chained(31) }, true},
		{"at-the-limits", func() *constraint.Tuple { return box2(t, -1e6, 1e6, -1e6, 1e6) }, true},
		{"30-chained-vertices", func() *constraint.Tuple { return chained(30) }, true},
		{"40-gon", func() *constraint.Tuple { return constraint.FromPolyhedron(polygon) }, true},
		{"unsatisfiable", func() *constraint.Tuple { return box2(t, 3e6, 2e6, 0, 1) }, true},
		{"unbounded", func() *constraint.Tuple { return steepCone(t) }, true},
	}
	opt := Options{Slopes: []float64{-1, 0, 1}, Technique: T2}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			check := func(what string, err error) {
				t.Helper()
				if c.ok && err != nil || !c.ok && !errors.Is(err, ErrTupleRange) {
					t.Fatalf("%s: %v; want accepted: %v", what, err, c.ok)
				}
			}
			// Build.
			rel := constraint.NewRelation(2)
			for _, tp := range []*constraint.Tuple{box2(t, 0, 1, 0, 1), c.tp()} {
				if _, err := rel.Insert(tp); err != nil {
					t.Fatal(err)
				}
			}
			_, err := Build(rel, opt)
			check("Build", err)
			_, err = BuildD(rel, OptionsD{Sites: []geom.Point{{-1}, {0}, {1}}})
			check("BuildD", err)

			// Insert, alone and inside a batch: refused before the relation
			// sees the tuple.
			rel = constraint.NewRelation(2)
			ix, err := New(rel, opt)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ix.Insert(box2(t, 0, 1, 0, 1)); err != nil {
				t.Fatal(err)
			}
			_, err = ix.Insert(c.tp())
			check("Insert", err)
			batch := ix.Begin()
			_, err = batch.Insert(c.tp())
			check("Commit.Insert", err)
			if err != nil {
				err = batch.Abort()
			} else {
				err = batch.Commit()
			}
			if err != nil {
				t.Fatal(err)
			}
			want := 1
			if c.ok {
				want = 3
			}
			if rel.Len() != want || ix.CheckInvariants() != nil {
				t.Fatalf("relation holds %d tuples, want %d; invariants: %v", rel.Len(), want, ix.CheckInvariants())
			}
			q := constraint.Query2(constraint.EXIST, 0, math.Inf(-1), geom.GE)
			if got, err := ix.Query(q); err != nil || len(got.IDs) != ix.Len() {
				t.Fatalf("%v: %v, %v over %d indexed tuples", q, got.IDs, err, ix.Len())
			}
			if !c.ok {
				return
			}
			t1, err := Build(rel, Options{Slopes: opt.Slopes, Technique: T1})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []struct {
				ix   *Index
				a    float64
				path string
			}{{ix, 0, "restricted"}, {ix, 0.3, "t2"}, {ix, 5, "t2(outside)"}, {t1, 0.3, "t1"}} {
				for _, kind := range []constraint.QueryKind{constraint.ALL, constraint.EXIST} {
					for _, op := range []geom.Op{geom.GE, geom.LE} {
						q := constraint.Query2(kind, p.a, 0, op)
						var bs []float64
						rel.Scan(func(tp *constraint.Tuple) bool {
							if v := surfaceOf(tp, q); !math.IsInf(v, 0) {
								bs = append(bs, v, v-geom.Eps, v+geom.Eps, math.Nextafter(v-geom.Eps, v), math.Nextafter(v+geom.Eps, v))
							}
							return true
						})
						for _, b := range bs {
							q.Intercept = b
							got, err := p.ix.Query(q)
							want, _ := q.Eval(rel)
							if err != nil || got.Stats.Path != p.path || !sameIDs(got.IDs, want) {
								t.Fatalf("%v [%s]: got %v (%v), the scan %v", q, got.Stats.Path, got.IDs, err, want)
							}
						}
					}
				}
			}
		})
	}
}

// TestTupleRange3D: the coordinate bound in E³.
func TestTupleRange3D(t *testing.T) {
	rel := constraint.NewRelation(3)
	ix, err := NewD(rel, OptionsD{Sites: LatticeSites(2, 2, 1)})
	if err != nil {
		t.Fatal(err)
	}
	far, err := constraint.ParseTuple("x1 >= 0 && x1 <= 1 && x2 >= 0 && x2 <= 1 && x3 >= 2000000 && x3 <= 2000001", 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Insert(far); !errors.Is(err, ErrTupleRange) {
		t.Fatalf("Insert: %v, want ErrTupleRange", err)
	}
	if _, err := rel.Insert(far); err != nil { // behind the index's back
		t.Fatal(err)
	}
	if _, err := BuildD(rel, OptionsD{Sites: LatticeSites(2, 2, 1)}); !errors.Is(err, ErrTupleRange) {
		t.Fatalf("BuildD: %v, want ErrTupleRange", err)
	}
}

// TestOpenRejectsTupleOutOfRange damages one constant of a saved tuple so
// that its extension leaves the indexable range: Open must refuse the file.
func TestOpenRejectsTupleOutOfRange(t *testing.T) {
	const height = 123456.0
	store := pagestore.NewMemStore(1024)
	rel := constraint.NewRelation(2)
	if _, err := rel.Insert(box2(t, 0, 1, 0, height)); err != nil {
		t.Fatal(err)
	}
	ix, err := Build(rel, Options{Slopes: []float64{-1, 0, 1}, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(pagestore.NewPool(store, 64)); err != nil {
		t.Fatalf("undamaged: %v", err)
	}
	head, err := ix.Pool().Get(ix.tupleChain)
	if err != nil {
		t.Fatal(err)
	}
	var was, now [8]byte
	binary.LittleEndian.PutUint64(was[:], math.Float64bits(-height))
	binary.LittleEndian.PutUint64(now[:], math.Float64bits(-3e6))
	at := bytes.Index(head.Data(), was[:])
	if at < 0 {
		t.Fatal("the constant is not on the chain's first page")
	}
	copy(head.Data()[at:], now[:])
	head.MarkDirty()
	head.Release()
	if err := ix.Pool().Flush(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(pagestore.NewPool(store, 64)); !errors.Is(err, ErrTupleRange) {
		t.Fatalf("Open: %v, want ErrTupleRange", err)
	}
}

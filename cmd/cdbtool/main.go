// Command cdbtool is an interactive shell for the constraint database: it
// creates relations, inserts generalized tuples in the textual constraint
// syntax, builds the dual-representation index and/or the R⁺-tree
// baseline, and runs ALL/EXIST half-plane selections with execution
// statistics.
//
// Example session:
//
//	$ cdbtool
//	> insert x >= 0 && y >= 0 && x + y <= 4
//	inserted tuple 1
//	> insert y >= 8
//	inserted tuple 2
//	> index 3 t2
//	dual index built: k=3, technique T2, 6 pages
//	> exist y >= 0.7x + 1
//	EXIST(y >= 0.7x + 1): [1 2]  (path=t2, candidates=2, falseHits=0, pages=4)
//	> all y >= 6
//	ALL(y >= 6): [2]  (path=restricted, ...)
//
// Commands are also accepted on stdin non-interactively:
//
//	echo "gen 1000 small 7; index 3 t2; exist y >= x; stats" | cdbtool
package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"

	"dualcdb"
	"dualcdb/internal/constraint"
	"dualcdb/internal/geom"
)

type session struct {
	// mu serializes command execution against the debug server's stats
	// callback (the only concurrent reader of the session state).
	mu    sync.Mutex
	rel   *dualcdb.Relation
	dual  *dualcdb.Index
	rplus *dualcdb.RPlusIndex
	obs   *dualcdb.Observer
	srv   *http.Server
	out   *bufio.Writer
}

func main() {
	s := &session{rel: dualcdb.NewRelation(2), out: bufio.NewWriter(os.Stdout)}
	defer s.out.Flush()
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	interactive := isTerminal()
	if interactive {
		fmt.Fprintln(s.out, "dualcdb constraint database shell — 'help' for commands")
	}
	prompt := func() {
		if interactive {
			fmt.Fprint(s.out, "> ")
		}
		s.out.Flush()
	}
	prompt()
	for sc.Scan() {
		for _, line := range strings.Split(sc.Text(), ";") {
			line = strings.TrimSpace(line)
			if line == "" {
				continue
			}
			if line == "quit" || line == "exit" {
				return
			}
			if err := s.exec(line); err != nil {
				fmt.Fprintf(s.out, "error: %v\n", err)
			}
		}
		prompt()
	}
}

func isTerminal() bool {
	fi, err := os.Stdin.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

func (s *session) exec(line string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.execLocked(line)
}

func (s *session) execLocked(line string) error {
	cmd, rest, _ := strings.Cut(line, " ")
	rest = strings.TrimSpace(rest)
	switch cmd {
	case "help":
		s.help()
	case "insert":
		t, err := dualcdb.ParseTuple(rest, 2)
		if err != nil {
			return err
		}
		var id dualcdb.TupleID
		if s.dual != nil {
			id, err = s.dual.Insert(t)
		} else {
			id, err = s.rel.Insert(t)
		}
		if err != nil {
			return err
		}
		sat := ""
		if !t.IsSatisfiable() {
			sat = " (unsatisfiable: matches nothing)"
		} else if !t.IsBounded() {
			sat = " (infinite object)"
		}
		fmt.Fprintf(s.out, "inserted tuple %d%s\n", id, sat)
		s.dropRPlus()
	case "delete":
		id, err := strconv.Atoi(rest)
		if err != nil {
			return fmt.Errorf("delete <tuple-id>")
		}
		if s.dual != nil {
			err = s.dual.Delete(dualcdb.TupleID(id))
		} else {
			err = s.rel.Delete(dualcdb.TupleID(id))
		}
		if err != nil {
			return err
		}
		s.dropRPlus()
	case "list":
		s.rel.Scan(func(t *dualcdb.Tuple) bool {
			fmt.Fprintf(s.out, "%4d: %s\n", t.ID(), t)
			return true
		})
	case "gen":
		return s.gen(rest)
	case "index":
		return s.buildDual(rest)
	case "rindex":
		ix, err := dualcdb.BuildRPlusIndex(s.rel, dualcdb.RPlusOptions{})
		if err != nil {
			return err
		}
		s.rplus = ix
		fmt.Fprintf(s.out, "R+-tree built: %d pages (%d unbounded/empty tuples skipped)\n",
			ix.Pages(), ix.Skipped)
	case "exist", "all":
		kind := dualcdb.EXIST
		if cmd == "all" {
			kind = dualcdb.ALL
		}
		return s.query(kind, rest)
	case "save":
		return s.save(rest)
	case "load":
		return s.load(rest)
	case "dbsave":
		return s.dbsave(rest)
	case "dbopen":
		return s.dbopen(rest)
	case "observe":
		return s.observe(rest)
	case "serve":
		return s.serve(rest)
	case "traces":
		return s.traces()
	case "flight":
		return s.flight()
	case "stats":
		s.stats()
	default:
		return fmt.Errorf("unknown command %q ('help' lists commands)", cmd)
	}
	return nil
}

func (s *session) help() {
	fmt.Fprint(s.out, `commands:
  insert <constraints>     insert a tuple, e.g. insert x >= 0 && y <= 2x + 1
  delete <id>              delete a tuple
  list                     list tuples
  gen <n> <small|medium> [seed]
                           generate a random relation (replaces current)
  index <k> [t1|t2]        build the dual index with k slopes (default t2)
  rindex                   build the R+-tree baseline (insert and delete
                           drop it)
  exist <constraints>      EXIST selection; one constraint runs a half-plane
                           query, a conjunction runs a generalized-tuple
                           query, e.g. exist y >= 0.5x + 2 && x <= 10
  all <constraints>        ALL selection (same forms)
  save <path>              write the relation as a text file
  load <path>              read a relation text file (replaces current)
  dbsave <path>            write relation + dual index as a binary database
  dbopen <path>            reopen a binary database (replaces current)
  observe [slow <dur>|off] attach a query observer (metrics, traces); with
                           'slow 10ms' queries at or over the threshold are
                           logged to stderr and retained for 'traces'
  serve [addr]             start the HTTP debug server (default
                           127.0.0.1:6060): /debug/stats, /debug/metrics,
                           /debug/traces, /debug/prom, /debug/flight,
                           /debug/pprof
  traces                   dump the retained slow-query traces
  flight                   dump the commit flight recorder (recent commits
                           with stage timings and page clone/free counts)
  stats                    structure + query and commit statistics
  quit                     leave
`)
}

// dropRPlus discards the R⁺-tree after a write to the relation: it is
// built once and does not follow writes, so it must not answer again.
func (s *session) dropRPlus() {
	if s.rplus != nil {
		s.rplus = nil
		fmt.Fprintln(s.out, "note: R+-tree index dropped (it does not follow writes); rebuild with 'rindex'")
	}
}

// save writes one tuple per line in the parseable constraint syntax.
func (s *session) save(path string) error {
	if path == "" {
		return fmt.Errorf("save <path>")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	var scanErr error
	s.rel.Scan(func(t *dualcdb.Tuple) bool {
		if _, err := fmt.Fprintln(w, t.String()); err != nil {
			scanErr = err
			return false
		}
		return true
	})
	if scanErr != nil {
		return scanErr
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(s.out, "saved %d tuples to %s\n", s.rel.Len(), path)
	return nil
}

// load replaces the relation with the tuples from a text file (one tuple
// per line; blank lines and lines starting with '#' are skipped).
func (s *session) load(path string) error {
	if path == "" {
		return fmt.Errorf("load <path>")
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rel := dualcdb.NewRelation(2)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		t, err := dualcdb.ParseTuple(text, 2)
		if err != nil {
			return fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if _, err := rel.Insert(t); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	s.rel, s.dual, s.rplus = rel, nil, nil
	fmt.Fprintf(s.out, "loaded %d tuples from %s; indexes cleared\n", rel.Len(), path)
	return nil
}

func (s *session) gen(rest string) error {
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return fmt.Errorf("gen <n> <small|medium> [seed]")
	}
	n, err := strconv.Atoi(fields[0])
	if err != nil || n <= 0 {
		return fmt.Errorf("bad cardinality %q", fields[0])
	}
	size := dualcdb.SmallObjects
	switch fields[1] {
	case "small":
	case "medium":
		size = dualcdb.MediumObjects
	default:
		return fmt.Errorf("size must be small or medium")
	}
	seed := int64(1)
	if len(fields) > 2 {
		if seed, err = strconv.ParseInt(fields[2], 10, 64); err != nil {
			return fmt.Errorf("bad seed %q", fields[2])
		}
	}
	rel, err := dualcdb.GenerateRelation(dualcdb.WorkloadConfig{N: n, Size: size, Seed: seed})
	if err != nil {
		return err
	}
	s.rel, s.dual, s.rplus = rel, nil, nil
	fmt.Fprintf(s.out, "generated %d %s tuples (seed %d); indexes cleared\n", n, size, seed)
	return nil
}

func (s *session) buildDual(rest string) error {
	fields := strings.Fields(rest)
	if len(fields) < 1 {
		return fmt.Errorf("index <k> [t1|t2]")
	}
	k, err := strconv.Atoi(fields[0])
	if err != nil || k < 1 {
		return fmt.Errorf("bad k %q", fields[0])
	}
	tech := dualcdb.T2
	if len(fields) > 1 {
		switch fields[1] {
		case "t1":
			tech = dualcdb.T1
		case "t2":
		case "restricted":
			tech = dualcdb.RestrictedOnly
		default:
			return fmt.Errorf("technique must be t1, t2 or restricted")
		}
	}
	ix, err := dualcdb.BuildIndex(s.rel, dualcdb.IndexOptions{
		Slopes: dualcdb.EquiangularSlopes(k), Technique: tech, Observe: s.obs,
	})
	if err != nil {
		return err
	}
	s.dual = ix
	fmt.Fprintf(s.out, "dual index built: k=%d, technique %v, %d pages\n", k, tech, ix.Pages())
	return nil
}

// query parses the constraint text and runs either a half-plane selection
// (single constraint) or a generalized-tuple selection (conjunction) on
// the dual index (preferred), the R⁺-tree, or by exhaustive scan.
func (s *session) query(kind dualcdb.QueryKind, rest string) error {
	cons, err := dualcdb.ParseConstraints(rest, 2)
	if err != nil {
		return err
	}
	if len(cons) > 1 {
		return s.queryTuple(kind, rest)
	}
	q, err := parseHalfPlaneQuery(kind, rest)
	if err != nil {
		return err
	}
	switch {
	case s.dual != nil:
		res, err := s.dual.Query(q)
		if err != nil {
			return err
		}
		st := res.Stats
		fmt.Fprintf(s.out, "%v: %v  (path=%s, candidates=%d, decided=%d, falseHits=%d, duplicates=%d, pages=%d)\n",
			q, res.IDs, st.Path, st.Candidates, st.Decided, st.FalseHits, st.Duplicates, st.PagesRead)
		// The funnel: what the sweeps retrieved, what they settled on the key
		// (into the answer or out of it) — the tangent some of those — and
		// what the predicate decided.
		evaluated := st.Candidates - st.Duplicates - st.Decided
		fmt.Fprintf(s.out, "  funnel: candidates %d → duplicates %d → sure %d / rejected on key %d (decided by tangent %d) → evaluated %d → false hits %d → results %d\n",
			st.Candidates, st.Duplicates, st.Sure, st.Decided-st.Sure, st.Tangent, evaluated, evaluated-(st.Results-st.Sure), st.Results)
	case s.rplus != nil:
		res, err := s.rplus.Query(q)
		if err != nil {
			return err
		}
		st := res.Stats
		fmt.Fprintf(s.out, "%v: %v  (path=%s, candidates=%d, falseHits=%d, pages=%d)\n",
			q, res.IDs, st.Path, st.Candidates, st.FalseHits, st.PagesRead)
	default:
		ids, err := q.Eval(s.rel)
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "%v: %v  (exhaustive scan — build an index with 'index')\n", q, ids)
	}
	return nil
}

// queryTuple runs a generalized-tuple selection (conjunction of
// constraints as the query object).
func (s *session) queryTuple(kind dualcdb.QueryKind, rest string) error {
	qt, err := dualcdb.ParseTuple(rest, 2)
	if err != nil {
		return err
	}
	if s.dual == nil {
		ids, err := dualcdb.EvalTuple(kind, qt, s.rel)
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "%v(%s): %v  (exhaustive scan — build an index with 'index')\n", kind, qt, ids)
		return nil
	}
	res, err := s.dual.QueryTuple(kind, qt)
	if err != nil {
		return err
	}
	st := res.Stats
	fmt.Fprintf(s.out, "%v(%s): %v  (path=%s, constraints=%d indexed/%d skipped, candidates=%d, falseHits=%d, pages=%d)\n",
		kind, qt, res.IDs, st.Path, st.ConstraintsIndexed, st.ConstraintsSkipped,
		st.Candidates, st.FalseHits, st.PagesRead)
	return nil
}

// dbsave persists the relation and the dual index as a single-file binary
// database. The current in-memory index is rebuilt onto the file store.
func (s *session) dbsave(path string) error {
	if path == "" {
		return fmt.Errorf("dbsave <path>")
	}
	if s.dual == nil {
		return fmt.Errorf("build a dual index first ('index <k>')")
	}
	opt := dualcdb.IndexOptions{
		Slopes:    s.dual.Slopes(),
		Technique: dualcdb.T2,
	}
	// Rebuild onto the file store: relation tuples must be re-owned by a
	// fresh relation (tuples carry their relation identity).
	rel := dualcdb.NewRelation(2)
	var copyErr error
	s.rel.Scan(func(t *dualcdb.Tuple) bool {
		fresh, err := dualcdb.NewTuple(2, t.Constraints())
		if err != nil {
			copyErr = err
			return false
		}
		if _, err := rel.Insert(fresh); err != nil {
			copyErr = err
			return false
		}
		return true
	})
	if copyErr != nil {
		return copyErr
	}
	idx, err := dualcdb.CreateDatabase(path, rel, opt)
	if err != nil {
		return err
	}
	if err := idx.Save(); err != nil {
		return err
	}
	fmt.Fprintf(s.out, "database saved: %d tuples, %d tree pages -> %s\n", rel.Len(), idx.Pages(), path)
	return nil
}

// dbopen replaces the session state with a reopened binary database.
func (s *session) dbopen(path string) error {
	if path == "" {
		return fmt.Errorf("dbopen <path>")
	}
	rel, idx, err := dualcdb.OpenDatabase(path, dualcdb.DefaultPageSize)
	if err != nil {
		return err
	}
	idx.SetObserver(s.obs)
	s.rel, s.dual, s.rplus = rel, idx, nil
	fmt.Fprintf(s.out, "database opened: %d tuples, k=%d, %d tree pages\n",
		rel.Len(), len(idx.Slopes()), idx.Pages())
	return nil
}

// parseHalfPlaneQuery turns "y >= 0.5x + 2" into a Query via the
// constraint parser and the slope-form conversion.
func parseHalfPlaneQuery(kind dualcdb.QueryKind, text string) (dualcdb.Query, error) {
	cons, err := dualcdb.ParseConstraints(text, 2)
	if err != nil {
		return dualcdb.Query{}, err
	}
	if len(cons) != 1 {
		return dualcdb.Query{}, fmt.Errorf("a query is a single half-plane, got %d constraints", len(cons))
	}
	slope, icpt, op, err := cons[0].SlopeForm()
	if err != nil {
		return dualcdb.Query{}, fmt.Errorf("vertical query half-planes are not supported: %w", err)
	}
	return constraint.NewQuery(kind, slope, icpt, geom.Op(op)), nil
}

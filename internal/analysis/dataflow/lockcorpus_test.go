package dataflow

import (
	"go/types"
	"testing"
	"time"
)

// TestConcurrencyCorpusConverges runs the lock-set and publication summary
// computations over every repository package, then drives the full
// lock-set engine (fixpoint, hook replay, summary read-off) and the escape
// scan over every declared function. Any panic, SCC bail or blown time
// budget here is an engine bug: the corpus includes the repository's real
// concurrency shapes (MVCC commit path, pagestore shards, obs rings),
// which is exactly the code the analyzers must converge on. The converged
// lock bank must be a fixpoint — re-summarizing any function against it
// gives its summary back, Takes included — and no lock is both taken and
// handed back held.
func TestConcurrencyCorpusConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole repository against stdlib source")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	ld := newCorpusLoader(root)
	paths, err := ld.repoPackages()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 10 {
		t.Fatalf("suspiciously few packages: %v", paths)
	}

	var funcs, escapes, takes, maxIters, maxComp int
	var sumTime time.Duration
	for _, path := range paths {
		lp, err := ld.load(path)
		if err != nil {
			t.Fatalf("typechecking %s: %v", path, err)
		}
		start := time.Now()
		cg := BuildCallGraph(lp.files, ld.info)
		for _, comp := range cg.SCCs {
			if len(comp) > maxComp {
				maxComp = len(comp)
			}
		}
		lsums, lstats := ComputeLockSummaries(cg, ld.info, LockSpec{}, nil)
		bank := LockSpec{Summaries: func(fn *types.Func) (LockSummary, bool) {
			s, ok := lsums[fn]
			return s, ok
		}}
		_, fstats := ComputeFreezeSummaries(cg, ld.info, FreezeSpec{}, nil)
		for _, st := range []SummaryStats{lstats, fstats} {
			if st.Bailed != 0 {
				t.Errorf("%s: %d SCCs bailed to bottom — non-monotone lock/freeze transfer", path, st.Bailed)
			}
			if st.MaxIters > maxIters {
				maxIters = st.MaxIters
			}
		}
		// Per-function: the full engine must survive (and converge on) every
		// body, replay with empty hooks, and read a summary off the exit fact.
		for _, fi := range cg.Funcs {
			body := fi.Decl.Body
			al := NewAliases(body, ld.info)
			escapes += len(FindEscapes(body, ld.info, al))
			eng := NewLockEngine(body, ld.info, al, LockSpec{}, flatParams(fi.Fn))
			eng.Run()
			eng.Replay(&LockHooks{})
			_ = eng.Summary()
			if s, ok := lsums[fi.Fn]; ok {
				if again := summarizeLocks(fi, ld.info, bank); !again.sameShape(s) {
					t.Errorf("%s: lock summary is not a fixpoint: %+v, then %+v", fi.Fn.FullName(), s, again)
				}
				for _, tk := range s.Takes {
					for _, a := range s.Acquires {
						if tk.Param == a.Param && tk.Path == a.Path {
							t.Errorf("%s: %+v is both taken and acquired", fi.Fn.FullName(), tk)
						}
					}
				}
				takes += len(s.Takes)
			}
			funcs++
		}
		sumTime += time.Since(start)
	}
	// The pool's PinVersion and the obs rings take their own mutexes: a
	// corpus with no Takes at all means the effect went missing.
	if takes == 0 {
		t.Fatal("no function in the repository takes a parameter-rooted lock")
	}
	if funcs < 400 {
		t.Fatalf("concurrency corpus suspiciously small: %d functions (did the loader lose packages?)", funcs)
	}
	if bound := sccIterBound(maxComp); maxIters > bound {
		t.Fatalf("fixpoint took %d sweeps, bound for the largest SCC (%d funcs) is %d", maxIters, maxComp, bound)
	}
	// The unit driver adds these computations to every go vet invocation;
	// the whole-repo cost must stay well inside the CI analysis budget.
	if sumTime > 10*time.Second {
		t.Fatalf("concurrency analysis over the repo took %v, budget 10s", sumTime)
	}
	t.Logf("concurrency corpus: %d packages, %d functions, %d escapes, %d taken locks, max %d sweeps, %v total",
		len(paths), funcs, escapes, takes, maxIters, sumTime)
}

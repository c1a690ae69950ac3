// Package lockset checks mutex discipline over the CFG: re-entrant
// acquisition (sync mutexes self-deadlock), directly or through a callee
// that takes the lock, unlock of a lock that is not held, double unlock,
// read/write mode mismatches on RWMutex, and locks held on some but not
// all paths to return.
//
// The check runs the lock-set engine from internal/analysis/dataflow: a
// must/may-held analysis, alias-aware (after `s := p.shards[i]`, `s.mu`
// and `p.shards[i].mu` are one lock) and defer-safe (a deferred unlock
// keeps the lock held through the body and balances it at return).
// Functions that intentionally return holding a lock (Begin) or unlock a
// caller's lock (Commit, Abort) are not reported: the imbalance becomes
// part of their lock summary, serialized through vetx, and call sites are
// checked against it. So are the locks a function takes and drops again
// (an exported Stats locking its receiver): calling it while one of them
// may be held is a re-entry, reported at the call, in this package or any
// importer. Unknown callees are presumed lock-neutral.
// Escape hatch: //dualvet:allow lockset on the flagged line. _test.go
// files are exempt.
package lockset

import (
	"go/ast"
	"go/token"
	"go/types"

	"dualcdb/internal/analysis/dataflow"
	"dualcdb/internal/analysis/framework"
)

// Analyzer is the lockset check.
var Analyzer = &framework.Analyzer{
	Name: "lockset",
	Doc:  "flag re-entrant mutex acquisition, unbalanced unlocks, and divergent lock-sets at return",
	Run:  run,
}

func run(pass *framework.Pass) error {
	cg := dataflow.BuildCallGraph(pass.Files, pass.TypesInfo)
	imported := pass.Summaries.LocksFor(pass.Analyzer.Name)
	sums, _ := dataflow.ComputeLockSummaries(cg, pass.TypesInfo, dataflow.LockSpec{}, imported)
	spec := dataflow.LockSpec{
		Summaries: func(fn *types.Func) (dataflow.LockSummary, bool) {
			if s, ok := sums[fn]; ok {
				return s, true
			}
			s, ok := imported[fn.FullName()]
			return s, ok
		},
	}
	exp := &dataflow.PackageSummaries{}
	exp.AddLocks(pass.Analyzer.Name, sums)
	pass.Export(exp)

	for _, f := range pass.Files {
		if framework.IsTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			al := dataflow.NewAliases(fd.Body, pass.TypesInfo)
			var params []*types.Var
			if fn, okFn := pass.TypesInfo.Defs[fd.Name].(*types.Func); okFn {
				params = dataflow.FlatParams(fn)
			}
			checkBody(pass, fd.Body, al, spec, params, nil)
		}
	}
	return nil
}

// checkBody analyzes one body (function or closure; closures recurse via
// the FuncLit hook with the lock fact at their occurrence).
func checkBody(pass *framework.Pass, body *ast.BlockStmt, al *dataflow.Aliases, spec dataflow.LockSpec, params []*types.Var, entry *dataflow.LockFact) {
	eng := dataflow.NewLockEngine(body, pass.TypesInfo, al, spec, params)
	if entry != nil {
		eng.SetEntry(*entry)
	}
	eng.Run()

	line := func(p token.Pos) int { return pass.Fset.Position(p).Line }
	show := dataflow.DisplayPath

	hooks := &dataflow.LockHooks{
		Acquire: func(call *ast.CallExpr, via *types.Func, canon string, acq dataflow.LockAcq, already *dataflow.LockAcq) {
			if already == nil {
				return
			}
			through := ""
			if via != nil {
				through = " through " + types.ExprString(call.Fun) + "()"
			}
			switch {
			case already.Mode == dataflow.LockExcl:
				pass.Reportf(call.Pos(),
					"%s is acquired again%s while already locked (since line %d); sync mutexes are not reentrant, this deadlocks (//dualvet:allow lockset if the receiver differs at runtime)",
					show(canon), through, line(already.Pos))
			case acq.Mode == dataflow.LockExcl:
				pass.Reportf(call.Pos(),
					"%s write-lock upgrade%s while read-locked (RLock at line %d) deadlocks; release the read lock first",
					show(canon), through, line(already.Pos))
			default:
				pass.Reportf(call.Pos(),
					"recursive read lock of %s%s (RLock at line %d) can deadlock with a pending writer (//dualvet:allow lockset if no writer exists)",
					show(canon), through, line(already.Pos))
			}
		},
		Release: func(call *ast.CallExpr, canon string, mode dataflow.LockMode, held *dataflow.LockAcq, prevRel token.Pos, localRoot bool, paramIdx int) {
			if held != nil {
				if mode == dataflow.LockExcl && held.Mode == dataflow.LockRead {
					pass.Reportf(call.Pos(),
						"Unlock of %s which is held in read mode (RLock at line %d); use RUnlock",
						show(canon), line(held.Pos))
				} else if mode == dataflow.LockRead && held.Mode == dataflow.LockExcl && !held.Try {
					pass.Reportf(call.Pos(),
						"RUnlock of %s which is held in write mode (Lock at line %d); use Unlock",
						show(canon), line(held.Pos))
				}
				return
			}
			if prevRel.IsValid() {
				pass.Reportf(call.Pos(),
					"%s is unlocked twice (previous unlock at line %d); the second unlock panics at runtime",
					show(canon), line(prevRel))
				return
			}
			if localRoot && paramIdx < 0 {
				pass.Reportf(call.Pos(),
					"unlock of %s which is not held on any path here; unlocking an unlocked mutex panics",
					show(canon))
			}
			// Parameter/receiver-rooted releases without a hold are the
			// Commit/Abort contract and land in the summary instead.
		},
	}
	hooks.FuncLit = func(fl *ast.FuncLit, f *dataflow.LockFact, isGo bool) {
		var childEntry *dataflow.LockFact
		if !isGo {
			childEntry = f
		}
		checkBody(pass, fl.Body, al, spec, nil, childEntry)
	}
	eng.Replay(hooks)

	// Divergent exit: held on at least one path to return but not all of
	// them — almost always a missed unlock on an early return. TryLock
	// acquisitions and deferred unlocks are exempt (the success branch and
	// the defer both balance legitimately).
	exit := eng.ExitFact()
	if !exit.Unreached {
		for canon, acq := range exit.May {
			if acq.Try {
				continue
			}
			if _, must := exit.Must[canon]; must {
				continue
			}
			if _, deferred := exit.DeferRel[canon]; deferred {
				continue
			}
			pass.Reportf(acq.Pos,
				"%s acquired here is released on some return paths but still held on others; unlock it on every path or defer the unlock (//dualvet:allow lockset if a callee releases it)",
				show(canon))
		}
	}
}

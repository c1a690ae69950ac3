// Package pinleak flags page-frame pins that can escape release.
//
// The buffer pool's contract (internal/pagestore) is strict: every frame
// handed out pinned — by Get, GetTracked or NewPage — must
// be Released exactly once. A pin that never reaches Release wedges its
// frame in the pool forever: the clock hand skips pinned frames, so each
// leak permanently shrinks the effective pool until Get fails with "no
// evictable frame". Over-release already panics at runtime; under-release
// is silent, which is what this analyzer exists for.
//
// The check runs the obligation engine from internal/analysis/dataflow over
// each function's CFG: a pin opens an obligation that must be closed on
// every path reaching a normal return. Closing events are a Release on the
// frame (through any single-assignment alias), a `defer f.Release()`, or an
// ownership transfer — returning the frame, storing it into a structure or
// global, or capturing it in a closure (the new holder is then responsible;
// wrap() in btree is the canonical case). Calls are resolved through
// function summaries computed bottom-up over the package call graph (and
// imported from dependency vetx records): passing a frame to a callee whose
// summary says it releases or takes ownership discharges the obligation,
// while a callee that merely reads the frame — or releases it on only some
// paths — leaves the duty with the caller, and the diagnostic names the
// helper chain. A helper whose summary returns a fresh pin (its result
// passes a Get through) is itself a source at its call sites. Unknown or
// external callees keep the old conservative reading: ownership presumed
// transferred. The `f, err := pool.Get(id); if err != nil { return err }`
// idiom is understood: no frame exists on the error arm. Escape hatch:
// //dualvet:allow pinleak on the acquiring line. _test.go files are exempt
// (tests leak pins deliberately to probe pool accounting).
//
// The flat-layout views add a second, inverted discipline on top of the pin
// obligations: a btree nodeView/LeafView is a borrow of the pinned frame's
// bytes, and once the frame is released the pool may recycle that buffer
// under a different page — reading the view then returns another page's
// bytes. The borrow engine (dataflow.FindBorrowViolations) tracks each view
// from its creating call (node.view, Tree.leafView) and flags any read of
// it sequenced after a release of its lender (node.release, Frame.Release)
// on some path. Views are values, so passing one to a call or returning it
// is an ordinary pre-release read; `defer release` never kills a view; and
// rebinding the view or lender name each loop iteration keeps sweep loops
// clean. btree.EnableViewGuard is the runtime backstop for the dynamic
// cases this static check cannot see.
package pinleak

import (
	"go/ast"
	"go/types"
	"strings"

	"dualcdb/internal/analysis/dataflow"
	"dualcdb/internal/analysis/disciplines"
	"dualcdb/internal/analysis/framework"
)

// Analyzer is the pinleak check.
var Analyzer = &framework.Analyzer{
	Name: "pinleak",
	Doc:  "flag pagestore frame pins that may not reach Release on every return path",
	Run:  run,
}

// Pairs is the registry of pin → release disciplines this analyzer
// enforces, shared through the disciplines package.
var Pairs = disciplines.Pins

// Package-path suffixes match both the real packages and the testdata
// fakes, mirroring errsink's resolution strategy. The pin disciplines
// carry their own suffix in the registry; these serve the borrow spec.
const (
	poolPkg  = "pagestore"
	btreePkg = "btree"
)

// ViewSources are the btree methods that return a view borrowing the bytes
// of a pinned frame. The map value is the index of the lender among the
// call's operands: -1 for the receiver, n for argument n.
var ViewSources = map[string]int{
	"view":     -1, // (node).view() — lender is the receiver node
	"leafView": 0,  // (*Tree).leafView(leaf) — lender is the leaf argument
}

func run(pass *framework.Pass) error {
	spec := Pairs.LeakSpec(pass.TypesInfo)
	bspec := dataflow.BorrowSpec{
		Borrow: func(call *ast.CallExpr) ([]ast.Expr, int, bool) {
			name, ok := viewSource(pass, call)
			if !ok {
				return nil, 0, false
			}
			var lender ast.Expr
			if argIdx := ViewSources[name]; argIdx < 0 {
				sel, _ := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				lender = sel.X
			} else if argIdx < len(call.Args) {
				lender = call.Args[argIdx]
			}
			if lender == nil {
				return nil, 0, false
			}
			return []ast.Expr{lender}, 0, true
		},
		IsRelease: func(call *ast.CallExpr) bool {
			return disciplines.MethodOn(pass.TypesInfo, call, btreePkg, "node", "release") ||
				disciplines.MethodOn(pass.TypesInfo, call, poolPkg, "Frame", "Release")
		},
		IsLender: func(t types.Type) bool {
			return disciplines.NamedIn(t, btreePkg, "node") || disciplines.NamedIn(t, poolPkg, "Frame")
		},
		// The borrow dies with either the node or its embedded frame: a
		// direct lender.frame.Release() must count as a release too.
		ExpandLender: func(l ast.Expr) []ast.Expr {
			return []ast.Expr{&ast.SelectorExpr{X: l, Sel: ast.NewIdent("frame")}}
		},
	}

	// Interprocedural step: summarize every function of this package
	// bottom-up over the call graph, with the banks imported from dependency
	// vetx records underneath, then let the per-function checks consult the
	// summaries at call sites instead of assuming every call takes ownership.
	cg := dataflow.BuildCallGraph(pass.Files, pass.TypesInfo)
	importedOb := pass.Summaries.ObligationsFor(pass.Analyzer.Name)
	obs, _ := dataflow.ComputeObSummaries(cg, pass.TypesInfo, spec, importedOb)
	spec.Summaries = func(fn *types.Func) (dataflow.ObSummary, bool) {
		if s, ok := obs[fn]; ok {
			return s, true
		}
		s, ok := importedOb[fn.FullName()]
		return s, ok
	}
	importedBw := pass.Summaries.BorrowBank()
	bsums, _ := dataflow.ComputeBorrowSummaries(cg, pass.TypesInfo, bspec, importedBw)
	bspec.Summaries = func(fn *types.Func) (dataflow.BorrowSummary, bool) {
		if s, ok := bsums[fn]; ok {
			return s, true
		}
		s, ok := importedBw[fn.FullName()]
		return s, ok
	}
	exp := &dataflow.PackageSummaries{}
	exp.AddObligations(pass.Analyzer.Name, obs)
	exp.AddBorrows(bsums)
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
			checkBody(pass, fd.Body, spec)
			checkBorrows(pass, fd.Body, bspec)
			for _, fl := range dataflow.FuncLits(fd.Body) {
				checkBody(pass, fl.Body, spec)
				checkBorrows(pass, fl.Body, bspec)
			}
		}
	}
	return nil
}

// viewSource reports whether call is one of the borrow-creating btree
// methods, returning its name.
func viewSource(pass *framework.Pass, call *ast.CallExpr) (string, bool) {
	for name := range ViewSources {
		var typeName string
		if name == "view" {
			typeName = "node"
		} else {
			typeName = "Tree"
		}
		if disciplines.MethodOn(pass.TypesInfo, call, btreePkg, typeName, name) {
			return name, true
		}
	}
	return "", false
}

func checkBorrows(pass *framework.Pass, body *ast.BlockStmt, spec dataflow.BorrowSpec) {
	for _, v := range dataflow.FindBorrowViolations(body, pass.TypesInfo, spec) {
		pass.Reportf(v.Use.Pos(),
			"view %s (borrowed by %s) is read after its frame's release; a view must not outlive the frame's Release (//dualvet:allow pinleak if the page is known re-pinned)",
			v.Use.Name, calleeName(v.Borrow))
	}
}

func checkBody(pass *framework.Pass, body *ast.BlockStmt, spec dataflow.LeakSpec) {
	for _, leak := range dataflow.FindLeaks(body, pass.TypesInfo, spec) {
		name := calleeName(leak.Acquire)
		switch {
		case leak.Immediate:
			pass.Reportf(leak.Acquire.Pos(),
				"frame pinned by %s is discarded without Release; the pin wedges the frame in the pool (//dualvet:allow pinleak if intentional)",
				name)
		case len(leak.Chain) > 0:
			verb := "does not release it"
			if leak.Conditional {
				verb = "releases it on only some paths"
			}
			pass.Reportf(leak.Acquire.Pos(),
				"frame pinned by %s is passed to %s, which %s; the pin may never reach Release (//dualvet:allow pinleak if ownership rests with the callee)",
				name, strings.Join(leak.Chain, " → "), verb)
		default:
			pass.Reportf(leak.Acquire.Pos(),
				"frame pinned by %s may not reach Release on every return path; use defer f.Release() or release on each branch (//dualvet:allow pinleak if ownership moves elsewhere)",
				name)
		}
	}
}

func calleeName(call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return types.ExprString(sel.X) + "." + sel.Sel.Name
	}
	return types.ExprString(call.Fun)
}

// Package atomicpub enforces declared field-guard disciplines: a struct
// field annotated `//dualvet:guarded=<mutex>` may only be written while
// that mutex is held in write mode, and typed atomic fields (atomic.Bool,
// atomic.Pointer[T], ...) may only be accessed through their methods —
// never copied or overwritten as plain values. The same rule covers the
// legacy call-style API: an integer field passed to a sync/atomic function
// (atomic.AddUint64(&s.n, 1)) anywhere in the package may not also be read
// or written plainly — the plain access is invisible to the atomic one, and
// the race detector only catches schedules that actually interleave. Typed
// atomics make that mix unrepresentable and are the recommended fix.
//
// The guard annotation names a sibling field path relative to the same
// struct value: `guarded=mu` for a plain mutex field, `guarded=Mutex` for
// an embedded one, `guarded=ring.Mutex` for one nested in a sub-struct.
// The check runs the lock-set engine from internal/analysis/dataflow, so
// holds are alias-aware, defer-safe, and flow through call-site summaries:
// a helper that writes a guarded field without taking or declaring the
// guard is not reported at the write — the obligation becomes a "requires"
// entry in its lock summary (the *Locked helper idiom), and every call
// site is checked for the hold instead. Summaries travel through vetx, so
// the contract holds across packages. Writes to a value the function
// freshly allocated are exempt until it escapes to another goroutine
// (constructors initialize without locks).
//
// Escape hatch: //dualvet:allow atomicpub on the flagged line. _test.go
// files are exempt.
package atomicpub

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"dualcdb/internal/analysis/dataflow"
	"dualcdb/internal/analysis/framework"
)

// Analyzer is the atomicpub check.
var Analyzer = &framework.Analyzer{
	Name: "atomicpub",
	Doc:  "flag writes to //dualvet:guarded fields without the guard held, and plain access to atomic fields (typed cells or fields used with sync/atomic calls)",
	Run:  run,
}

// guardDirective is the annotation prefix on struct field declarations.
const guardDirective = "//dualvet:guarded="

func run(pass *framework.Pass) error {
	guards := collectGuards(pass)

	guardOf := func(sel *ast.SelectorExpr) (string, bool) {
		obj := fieldObj(pass.TypesInfo, sel)
		if obj == nil {
			return "", false
		}
		path, ok := guards[obj]
		if !ok {
			return "", false
		}
		// Promoted access through embedded fields: the guard path is
		// relative to the struct declaring the field, so splice in the
		// implicit embedded segments.
		if prefix := dataflow.EmbeddedPrefix(pass.TypesInfo, sel); len(prefix) > 0 {
			path = strings.Join(prefix, ".") + "." + path
		}
		return path, true
	}

	cg := dataflow.BuildCallGraph(pass.Files, pass.TypesInfo)
	imported := pass.Summaries.LocksFor(pass.Analyzer.Name)
	sums, _ := dataflow.ComputeLockSummaries(cg, pass.TypesInfo, dataflow.LockSpec{GuardOf: guardOf}, imported)
	spec := dataflow.LockSpec{
		GuardOf: guardOf,
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
		checkPlainAtomics(pass, f)
	}
	checkMixedAtomics(pass)
	return nil
}

func checkBody(pass *framework.Pass, body *ast.BlockStmt, al *dataflow.Aliases, spec dataflow.LockSpec, params []*types.Var, entry *dataflow.LockFact) {
	eng := dataflow.NewLockEngine(body, pass.TypesInfo, al, spec, params)
	if entry != nil {
		eng.SetEntry(*entry)
	}
	eng.Run()
	hooks := &dataflow.LockHooks{
		UnguardedWrite: func(n ast.Node, sel *ast.SelectorExpr, guardCanon string, readHeld *dataflow.LockAcq) {
			field := types.ExprString(sel.X) + "." + sel.Sel.Name
			if readHeld != nil {
				pass.Reportf(n.Pos(),
					"write to %s while its guard %s is held only for reading (RLock at line %d); writes need the write lock",
					field, dataflow.DisplayPath(guardCanon), pass.Fset.Position(readHeld.Pos).Line)
				return
			}
			pass.Reportf(n.Pos(),
				"write to %s without holding its guard %s (declared //dualvet:guarded); lock it first or //dualvet:allow atomicpub with a reason",
				field, dataflow.DisplayPath(guardCanon))
		},
		UnmetRequire: func(call *ast.CallExpr, fn *types.Func, eff dataflow.LockEffect, canon string) {
			pass.Reportf(call.Pos(),
				"call to %s requires %s held (it writes fields guarded by it); acquire the lock around this call",
				fn.Name(), dataflow.DisplayPath(canon))
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
}

// collectGuards parses //dualvet:guarded annotations off struct field
// declarations and validates that the named guard resolves to a sibling
// sync.Mutex/RWMutex (possibly through nested fields).
func collectGuards(pass *framework.Pass) map[types.Object]string {
	guards := make(map[types.Object]string)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, fld := range st.Fields.List {
				path, pos, ok := guardAnnotation(fld)
				if !ok {
					continue
				}
				if len(fld.Names) == 0 {
					pass.Reportf(pos, "//dualvet:guarded on an embedded field has no effect; annotate the named fields instead")
					continue
				}
				if !guardResolves(pass.TypesInfo, st, path) {
					pass.Reportf(pos, "guard %q does not resolve to a sync.Mutex or sync.RWMutex field of this struct; the annotation is ignored", path)
					continue
				}
				for _, name := range fld.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						guards[obj] = path
					}
				}
			}
			return true
		})
	}
	return guards
}

// guardAnnotation extracts the guard path from a field's doc or trailing
// comment.
func guardAnnotation(fld *ast.Field) (string, token.Pos, bool) {
	for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, guardDirective)
			if !ok {
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				return "", c.Pos(), false
			}
			return fields[0], c.Pos(), true
		}
	}
	return "", token.NoPos, false
}

// guardResolves walks the dotted guard path through the struct's fields
// and checks the destination is a sync mutex.
func guardResolves(info *types.Info, st *ast.StructType, path string) bool {
	tv, ok := info.Types[st]
	if !ok {
		return false
	}
	t := tv.Type
	for _, seg := range strings.Split(path, ".") {
		s, okS := t.Underlying().(*types.Struct)
		if !okS {
			return false
		}
		var next types.Type
		for i := 0; i < s.NumFields(); i++ {
			if s.Field(i).Name() == seg {
				next = s.Field(i).Type()
				break
			}
		}
		if next == nil {
			return false
		}
		t = next
	}
	if p, okP := t.(*types.Pointer); okP {
		t = p.Elem()
	}
	named, okN := t.(*types.Named)
	if !okN || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return false
	}
	return named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex"
}

// fieldObj resolves a selector to the field variable it selects, through
// the Selections map (promoted fields included).
func fieldObj(info *types.Info, sel *ast.SelectorExpr) types.Object {
	if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
		return s.Obj()
	}
	return nil
}

// checkPlainAtomics flags typed atomic values copied or overwritten as
// plain values: `x.cnt = y` or `v := x.cnt` bypasses (and silently breaks)
// the atomic protocol — every access must go through the cell's methods.
func checkPlainAtomics(pass *framework.Pass, f *ast.File) {
	if framework.IsTestFile(pass.Fset, f) {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range asg.Lhs {
			if sel, okSel := ast.Unparen(lhs).(*ast.SelectorExpr); okSel && atomicCellType(pass.TypesInfo, sel) {
				pass.Reportf(lhs.Pos(),
					"atomic field %s overwritten as a plain value; use its Store method (plain writes race with atomic readers)",
					types.ExprString(sel))
			}
		}
		for _, rhs := range asg.Rhs {
			if sel, okSel := ast.Unparen(rhs).(*ast.SelectorExpr); okSel && atomicCellType(pass.TypesInfo, sel) {
				pass.Reportf(rhs.Pos(),
					"atomic field %s copied as a plain value; use its Load method (the copy divorces readers from writers)",
					types.ExprString(sel))
			}
		}
		return true
	})
}

// atomicCellType reports whether sel's type is a named sync/atomic cell.
func atomicCellType(info *types.Info, sel *ast.SelectorExpr) bool {
	tv, ok := info.Types[sel]
	if !ok || tv.Type == nil {
		return false
	}
	named, okN := tv.Type.(*types.Named)
	if !okN {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// checkMixedAtomics flags integer struct fields of this package that are
// accessed both through sync/atomic call-style operations and through plain
// loads or stores: it reports every plain access to a field some
// atomic.XxxT(&x.f, ...) call in the package touches.
func checkMixedAtomics(pass *framework.Pass) {
	atomicAt := make(map[types.Object]token.Pos)
	plain := make(map[types.Object][]*ast.SelectorExpr)
	for _, f := range pass.Files {
		if framework.IsTestFile(pass.Fset, f) {
			continue
		}
		// Selector expressions consumed as &x.f by a sync/atomic call; the
		// walk reaches a call before the selectors among its arguments.
		inAtomicCall := make(map[*ast.SelectorExpr]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && isAtomicFuncCall(pass.TypesInfo, call) {
				for _, arg := range call.Args {
					un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
					if !ok || un.Op != token.AND {
						continue
					}
					if sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr); ok {
						inAtomicCall[sel] = true
					}
				}
			}
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fld := fieldObj(pass.TypesInfo, sel)
			if fld == nil || fld.Pkg() != pass.Pkg {
				return true
			}
			if b, ok := fld.Type().Underlying().(*types.Basic); !ok || b.Info()&types.IsInteger == 0 {
				return true
			}
			if !inAtomicCall[sel] {
				plain[fld] = append(plain[fld], sel)
			} else if _, seen := atomicAt[fld]; !seen {
				atomicAt[fld] = sel.Sel.Pos()
			}
			return true
		})
	}
	for fld, sels := range plain {
		at, mixed := atomicAt[fld]
		if !mixed {
			continue
		}
		for _, sel := range sels {
			pass.Reportf(sel.Sel.Pos(),
				"field %s is accessed atomically at %s but plainly here; use a typed sync/atomic cell or make every access atomic",
				fld.Name(), pass.Fset.Position(at))
		}
	}
}

func isAtomicFuncCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic"
}

// Package spanleak flags observability spans and batch timers that can
// escape their End/Done.
//
// The obs layer's accounting assumes every begun interval is closed:
// Trace.Begin returns a SpanTimer that must reach End (the span is
// appended to the trace only there — a dropped timer silently loses the
// stage from per-stage attribution and breaks the reconciliation
// invariants), and Observer.StartBatch returns a BatchTimer whose Done
// records batch latency. Both are cheap value types, so nothing crashes
// when one is dropped — the telemetry just quietly lies, which is worse.
//
// The begin→close pairings live in the shared disciplines registry
// (disciplines.Spans); adding a trace type means adding one Pair there.
// The check runs the obligation engine from internal/analysis/dataflow
// over each function's CFG: Begin/StartBatch opens an obligation that must
// reach End/Done (directly, through a single-assignment alias, or via
// defer) on every path to a normal return. Returning the timer transfers
// the obligation to the caller; passing it to a callee is resolved through
// function summaries computed over the package call graph (and imported
// from dependency vetx records) — a helper that closes the timer on every
// path discharges the obligation, one that merely reads it (or closes it
// only conditionally) leaves the duty with the caller and the diagnostic
// names the helper chain. Unknown callees are presumed to take ownership,
// as before. Escape hatch: //dualvet:allow spanleak on the beginning line.
// _test.go files are exempt.
package spanleak

import (
	"go/ast"
	"go/types"
	"strings"

	"dualcdb/internal/analysis/dataflow"
	"dualcdb/internal/analysis/disciplines"
	"dualcdb/internal/analysis/framework"
)

// Analyzer is the spanleak check.
var Analyzer = &framework.Analyzer{
	Name: "spanleak",
	Doc:  "flag obs span/batch timers that may not reach End/Done on every return path",
	Run:  run,
}

// Pairs is the registry of begin → close disciplines this analyzer
// enforces, shared through the disciplines package.
var Pairs = disciplines.Spans

func run(pass *framework.Pass) error {
	spec := Pairs.LeakSpec(pass.TypesInfo)

	// Interprocedural step: summarize every function bottom-up over the
	// package call graph (imported dependency banks underneath), so a timer
	// handed to a helper is charged by what the helper actually does with it
	// — End on every path discharges, a read-only or conditional helper
	// leaves the duty here — and a helper returning a fresh timer is a
	// source at its call sites.
	cg := dataflow.BuildCallGraph(pass.Files, pass.TypesInfo)
	imported := pass.Summaries.ObligationsFor(pass.Analyzer.Name)
	sums, _ := dataflow.ComputeObSummaries(cg, pass.TypesInfo, spec, imported)
	spec.Summaries = func(fn *types.Func) (dataflow.ObSummary, bool) {
		if s, ok := sums[fn]; ok {
			return s, true
		}
		s, ok := imported[fn.FullName()]
		return s, ok
	}
	exp := &dataflow.PackageSummaries{}
	exp.AddObligations(pass.Analyzer.Name, sums)
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
			for _, fl := range dataflow.FuncLits(fd.Body) {
				checkBody(pass, fl.Body, spec)
			}
		}
	}
	return nil
}

func checkBody(pass *framework.Pass, body *ast.BlockStmt, spec dataflow.LeakSpec) {
	for _, leak := range dataflow.FindLeaks(body, pass.TypesInfo, spec) {
		name, closeName := describe(pass, leak.Acquire)
		switch {
		case leak.Immediate:
			pass.Reportf(leak.Acquire.Pos(),
				"timer started by %s is discarded without %s; the interval is never recorded (//dualvet:allow spanleak if intentional)",
				name, closeName)
		case len(leak.Chain) > 0:
			verb := "does not close it"
			if leak.Conditional {
				verb = "closes it on only some paths"
			}
			pass.Reportf(leak.Acquire.Pos(),
				"timer started by %s is passed to %s, which %s; the interval may never be recorded (//dualvet:allow spanleak if the callee is meant to keep it)",
				name, strings.Join(leak.Chain, " → "), verb)
		default:
			pass.Reportf(leak.Acquire.Pos(),
				"timer started by %s may not reach %s on every return path; close it on each branch or defer it (//dualvet:allow spanleak if ownership moves elsewhere)",
				name, closeName)
		}
	}
}

func describe(pass *framework.Pass, call *ast.CallExpr) (name, closeName string) {
	name = types.ExprString(call.Fun)
	closeName = Pairs.CloseFor(pass.TypesInfo, call)
	if closeName == "" {
		// A summarized source (helper returning a fresh timer): recover the
		// close method from the call's result types.
		if tv, ok := pass.TypesInfo.Types[call]; ok {
			elems := []types.Type{tv.Type}
			if tup, isTup := tv.Type.(*types.Tuple); isTup {
				elems = elems[:0]
				for i := 0; i < tup.Len(); i++ {
					elems = append(elems, tup.At(i).Type())
				}
			}
			for _, t := range elems {
				if c := Pairs.CloseForType(t); c != "" {
					closeName = c
				}
			}
		}
	}
	if closeName == "" {
		closeName = "its close method"
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		name = types.ExprString(sel.X) + "." + sel.Sel.Name
	}
	return name, closeName
}

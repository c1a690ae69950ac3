// Package disciplines is the single registry of the repository's
// begin→close resource disciplines. Each pairing an obligation analyzer
// enforces — a method that hands out a resource and the method that must
// be called on it before the last reference drops — is declared here
// exactly once, and spanleak, pinleak and snapleak build their LeakSpecs
// from it. Adding a trace or resource type means adding one Pair to the
// right registry, not editing each analyzer's private list.
package disciplines

import (
	"go/ast"
	"go/types"
	"strings"

	"dualcdb/internal/analysis/dataflow"
)

// Pair describes one begin→close discipline: the method that hands out
// the resource and the method that discharges it.
type Pair struct {
	// Pkg is the import-path suffix of the package declaring the types
	// ("obs", "pagestore") — a suffix so analysistest fakes match alongside
	// the real package.
	Pkg string
	// BeginType and Begin name the resource-producing method; the resource
	// is always result index 0.
	BeginType string
	Begin     string
	// CloseType and Close name the resource's type and its discharging
	// method.
	CloseType string
	Close     string
	// ErrIdx is the index of the error result paired with the resource
	// (the obligation is waived on the error arm), or -1 when the begin
	// cannot fail.
	ErrIdx int
}

// Registry is an ordered set of pairs sharing one analyzer.
type Registry []Pair

// Spans are the observability interval disciplines: every begun interval
// must be closed or the telemetry silently lies (spanleak).
var Spans = Registry{
	{Pkg: "obs", BeginType: "Trace", Begin: "Begin", CloseType: "SpanTimer", Close: "End", ErrIdx: -1},
	{Pkg: "obs", BeginType: "Observer", Begin: "StartBatch", CloseType: "BatchTimer", Close: "Done", ErrIdx: -1},
}

// Pins are the buffer-pool frame disciplines: every pinned frame must be
// released or it wedges in the pool forever (pinleak).
var Pins = Registry{
	{Pkg: "pagestore", BeginType: "Pool", Begin: "Get", CloseType: "Frame", Close: "Release", ErrIdx: 1},
	{Pkg: "pagestore", BeginType: "Pool", Begin: "GetTracked", CloseType: "Frame", Close: "Release", ErrIdx: 1},
	{Pkg: "pagestore", BeginType: "Pool", Begin: "NewPage", CloseType: "Frame", Close: "Release", ErrIdx: 1},
}

// Snapshots are the MVCC snapshot disciplines: an unreleased snapshot
// pins the reclaim watermark forever (snapleak).
var Snapshots = Registry{
	{Pkg: "core", BeginType: "Index", Begin: "Snapshot", CloseType: "Snapshot", Close: "Release", ErrIdx: -1},
}

// LeakSpec builds the obligation-engine spec for the registry: sources
// are the begin methods (resource at result 0, paired error per pair),
// releases the close methods, resources the close types. The caller wires
// in Summaries for the interprocedural step.
func (r Registry) LeakSpec(info *types.Info) dataflow.LeakSpec {
	return dataflow.LeakSpec{
		Source: func(call *ast.CallExpr) (int, int, bool) {
			for _, p := range r {
				if MethodOn(info, call, p.Pkg, p.BeginType, p.Begin) {
					return 0, p.ErrIdx, true
				}
			}
			return 0, 0, false
		},
		IsRelease: func(call *ast.CallExpr) bool {
			for _, p := range r {
				if MethodOn(info, call, p.Pkg, p.CloseType, p.Close) {
					return true
				}
			}
			return false
		},
		IsResource: func(t types.Type) bool {
			for _, p := range r {
				if NamedIn(t, p.Pkg, p.CloseType) {
					return true
				}
			}
			return false
		},
	}
}

// CloseFor returns the close-method name for the pair whose begin method
// call invokes, or "" when call is not a begin.
func (r Registry) CloseFor(info *types.Info, call *ast.CallExpr) string {
	for _, p := range r {
		if MethodOn(info, call, p.Pkg, p.BeginType, p.Begin) {
			return p.Close
		}
	}
	return ""
}

// CloseForType returns the close-method name for the pair whose resource
// type is t, or "".
func (r Registry) CloseForType(t types.Type) string {
	for _, p := range r {
		if NamedIn(t, p.Pkg, p.CloseType) {
			return p.Close
		}
	}
	return ""
}

// MethodOn reports whether call invokes method name on the named type
// typeName declared in a package whose import path ends in pkgSuffix (so
// testdata fakes match alongside the real package).
func MethodOn(info *types.Info, call *ast.CallExpr, pkgSuffix, typeName, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return NamedIn(sig.Recv().Type(), pkgSuffix, typeName)
}

// NamedIn reports whether t is (a pointer to) the named type typeName
// declared in a package whose import path ends in pkgSuffix.
func NamedIn(t types.Type, pkgSuffix, typeName string) bool {
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Name() != typeName {
		return false
	}
	path := named.Obj().Pkg().Path()
	return path == pkgSuffix || strings.HasSuffix(path, "/"+pkgSuffix)
}

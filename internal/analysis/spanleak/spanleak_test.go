package spanleak_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"dualcdb/internal/analysis/analysistest"
	"dualcdb/internal/analysis/framework"
	"dualcdb/internal/analysis/spanleak"
)

func TestSpanleak(t *testing.T) {
	analysistest.Run(t, "../testdata", spanleak.Analyzer, "spanleak")
}

// TestCrossPackageSummaries drives the vetx-shaped path analysistest cannot:
// summaries exported by one package's pass are handed to a dependent
// package's pass as the imported bank, so a timer passed to an external
// helper is charged by what that helper actually does with it.
func TestCrossPackageSummaries(t *testing.T) {
	const obsSrc = `package obs

type Stage int

type SpanTimer struct{ ok bool }

func (t SpanTimer) End(c0, c1 uint64, items int) {}

type Trace struct{ n int }

func (tr *Trace) Begin(stage Stage, c0, c1 uint64) SpanTimer { return SpanTimer{true} }
`
	const helpersSrc = `package helpers

import "fake/obs"

// Close discharges the timer on every path.
func Close(st obs.SpanTimer) { st.End(0, 0, 0) }

// Keep only reads the timer; the obligation stays with the caller.
func Keep(st obs.SpanTimer) { _ = st }
`
	const consumerSrc = `package consumer

import (
	"fake/helpers"
	"fake/obs"
)

func leaky(tr *obs.Trace) {
	st := tr.Begin(0, 0, 0)
	helpers.Keep(st)
}

func clean(tr *obs.Trace) {
	st := tr.Begin(0, 0, 0)
	helpers.Close(st)
}

func allowed(tr *obs.Trace) {
	st := tr.Begin(0, 0, 0) //dualvet:allow spanleak — keeper registry records the interval
	helpers.Keep(st)
}
`

	fset := token.NewFileSet()
	pkgs := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) { return pkgs[path], nil })
	load := func(path, src string) ([]*ast.File, *types.Package, *types.Info) {
		t.Helper()
		f, err := parser.ParseFile(fset, path+"/src.go", src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		info := framework.NewInfo()
		pkg, err := (&types.Config{Importer: imp}).Check(path, fset, []*ast.File{f}, info)
		if err != nil {
			t.Fatal(err)
		}
		pkgs[path] = pkg
		return []*ast.File{f}, pkg, info
	}

	load("fake/obs", obsSrc)

	hFiles, hPkg, hInfo := load("fake/helpers", helpersSrc)
	hDiags, exported, err := framework.RunPackage(fset, hFiles, hPkg, hInfo, []*framework.Analyzer{spanleak.Analyzer}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(hDiags) != 0 {
		t.Fatalf("helpers package should be clean, got %v", hDiags)
	}
	bank := exported.ObligationsFor("spanleak")
	keep, ok := bank["fake/helpers.Keep"]
	if !ok || len(keep.Params) == 0 || keep.Params[0].Discharges() {
		t.Fatalf("exported summary for Keep should keep the obligation, got %+v (present=%v)", keep, ok)
	}
	cl, ok := bank["fake/helpers.Close"]
	if !ok || len(cl.Params) == 0 || !cl.Params[0].Discharges() || cl.Params[0].Conditional() {
		t.Fatalf("exported summary for Close should discharge unconditionally, got %+v (present=%v)", cl, ok)
	}

	cFiles, cPkg, cInfo := load("fake/consumer", consumerSrc)
	diags, _, err := framework.RunPackage(fset, cFiles, cPkg, cInfo, []*framework.Analyzer{spanleak.Analyzer}, exported)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("want exactly one diagnostic (leaky; clean discharged, allowed suppressed), got %d: %v", len(diags), diags)
	}
	msg := diags[0].Message
	if !strings.Contains(msg, "passed to Keep") || !strings.Contains(msg, "does not close it") {
		t.Fatalf("diagnostic should name the imported helper chain, got %q", msg)
	}
	if line := fset.Position(diags[0].Pos).Line; line != 9 {
		t.Fatalf("diagnostic should anchor on leaky's Begin (line 9), got line %d", line)
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

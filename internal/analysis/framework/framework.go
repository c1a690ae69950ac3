// Package framework is a minimal, dependency-free reimplementation of the
// go/analysis vocabulary (Analyzer, Pass, Diagnostic) plus the shared
// execution engine used by both the dualvet vet-tool driver and the
// analysistest harness.
//
// The repository cannot vendor golang.org/x/tools (the build environment is
// offline), so the subset of the go/analysis contract that dualvet needs is
// implemented here against the standard library only: analyzers receive
// parsed, type-checked syntax for one package and report position-anchored
// diagnostics. The cross-package channel is the function-summary bank
// (dataflow.PackageSummaries): the unit driver feeds each pass the summaries
// decoded from its dependencies' vetx records, and analyzers export their own
// package's summaries back for the unit's record — the stdlib-only stand-in
// for go/analysis facts.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"dualcdb/internal/analysis/dataflow"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, enable flags and
	// //dualvet:allow comments. It must be a valid identifier.
	Name string
	// Doc is the help text.
	Doc string
	// Run executes the check and reports findings via pass.Report.
	Run func(pass *Pass) error
}

// A Pass provides one analyzer with the syntax and type information of a
// single package, mirroring analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report records one diagnostic. Diagnostics suppressed by a
	// //dualvet:allow comment are filtered by the engine, not by Report.
	Report func(Diagnostic)
	// Summaries holds the function summaries imported from this package's
	// dependencies (decoded from their vetx records by the unit driver).
	// Nil outside the driver; analyzers treat missing entries as unknown
	// callees, which degrades to the intra-procedural behavior.
	Summaries *dataflow.PackageSummaries
	// exported accumulates the summaries this pass computed for its own
	// package, destined for the unit's vetx record.
	exported *dataflow.PackageSummaries
}

// Export merges s into the pass's exported summary bank, for the unit
// driver to serialize into the vetx record.
func (p *Pass) Export(s *dataflow.PackageSummaries) {
	if s.Empty() {
		return
	}
	if p.exported == nil {
		p.exported = &dataflow.PackageSummaries{}
	}
	p.exported.Merge(s)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string // filled by the engine
}

// AllowDirective is the comment prefix that suppresses diagnostics:
// `//dualvet:allow name1,name2` on the flagged line or the line directly
// above it.
const AllowDirective = "//dualvet:allow"

// RunPackage executes the analyzers over one type-checked package and
// returns the surviving diagnostics in file/position order, plus the merged
// summary bank the analyzers exported for this package (nil when none).
// imported supplies cross-package summaries from the package's dependencies
// (nil outside the unit driver). Diagnostics on lines carrying (or directly
// below) a matching //dualvet:allow comment are dropped.
func RunPackage(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer, imported *dataflow.PackageSummaries) ([]Diagnostic, *dataflow.PackageSummaries, error) {
	allow := collectAllows(fset, files)
	var out []Diagnostic
	var exported *dataflow.PackageSummaries
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Summaries: imported,
		}
		name := a.Name
		pass.Report = func(d Diagnostic) {
			d.Analyzer = name
			if d.Pos.IsValid() && allow.allows(fset.Position(d.Pos), name) {
				return
			}
			out = append(out, d)
		}
		if err := a.Run(pass); err != nil {
			return nil, nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
		if pass.exported != nil {
			if exported == nil {
				exported = &dataflow.PackageSummaries{}
			}
			exported.Merge(pass.exported)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		pi, pj := fset.Position(out[i].Pos), fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return out, exported, nil
}

// allowSet maps filename → line → analyzer names allowed on that line.
type allowSet map[string]map[int]map[string]bool

func (s allowSet) allows(pos token.Position, name string) bool {
	lines := s[pos.Filename]
	if lines == nil {
		return false
	}
	// A directive suppresses the line it sits on and the line below it
	// (the "comment on its own line above the statement" idiom).
	for _, ln := range [2]int{pos.Line, pos.Line - 1} {
		if names := lines[ln]; names != nil && (names[name] || names["all"]) {
			return true
		}
	}
	return false
}

func collectAllows(fset *token.FileSet, files []*ast.File) allowSet {
	s := make(allowSet)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, AllowDirective)
				if !ok {
					continue
				}
				// Grammar: `//dualvet:allow name1,name2 optional prose`;
				// only the first whitespace-separated field names analyzers.
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				rest = fields[0]
				pos := fset.Position(c.Pos())
				lines := s[pos.Filename]
				if lines == nil {
					lines = make(map[int]map[string]bool)
					s[pos.Filename] = lines
				}
				names := lines[pos.Line]
				if names == nil {
					names = make(map[string]bool)
					lines[pos.Line] = names
				}
				for _, n := range strings.Split(rest, ",") {
					if n = strings.TrimSpace(n); n != "" {
						names[n] = true
					}
				}
			}
		}
	}
	return s
}

// NewInfo returns a types.Info with every map the analyzers rely on.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
		Scopes:     make(map[ast.Node]*types.Scope),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}

// IsTestFile reports whether the file's name ends in _test.go. Analyzers
// whose invariants do not apply to test assertions (floatcmp, errsink) use
// it to skip test files.
func IsTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Package).Filename, "_test.go")
}

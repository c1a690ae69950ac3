// Package analysistest runs a framework.Analyzer over golden packages under
// testdata/src and checks its diagnostics against // want comments — the
// same contract as golang.org/x/tools/go/analysis/analysistest, rebuilt on
// the standard library.
//
// A test package lives in <testdata>/src/<importpath>/. Imports are resolved
// first against sibling testdata packages, then against the standard library
// via the source importer (go/importer "source"), so golden files can model
// cross-package shapes (a fake pagestore for errsink) without a module
// proxy. Those shared fakes are stand-ins with stub bodies; a golden
// package's own sub-packages (<importpath>/...) are real dependencies: the
// analyzer runs over them first, and the summaries those runs export are the
// golden package's imported bank — what the unit driver reads from
// dependency vetx files.
//
// Expectations are trailing comments on the offending line:
//
//	x := top == bot // want `exact floating-point`
//
// Each backquoted or double-quoted string is a regexp that must match the
// message of exactly one diagnostic reported on that line; diagnostics with
// no matching expectation, and expectations with no matching diagnostic,
// fail the test.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"dualcdb/internal/analysis/dataflow"
	"dualcdb/internal/analysis/framework"
)

// The source importer type-checks the standard library from GOROOT source;
// that is slow enough (tens of ms per package tree) to be worth sharing
// across every test in the process. All loads are serialized by mu.
var (
	mu       sync.Mutex
	fset     = token.NewFileSet()
	stdImp   types.Importer
	pkgCache = map[string]*loadedPkg{}
)

type loadedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
	err   error
}

// Run loads <testdata>/src/<pkgpath>, runs the analyzer on it and reports
// mismatches against the package's // want comments.
func Run(t *testing.T, testdata string, a *framework.Analyzer, pkgpath string) {
	t.Helper()
	mu.Lock()
	defer mu.Unlock()
	if stdImp == nil {
		stdImp = importer.ForCompiler(fset, "source", nil)
	}
	lp := load(testdata, pkgpath)
	if lp.err != nil {
		t.Fatalf("loading %s: %v", pkgpath, lp.err)
	}
	imported := &dataflow.PackageSummaries{}
	if err := importSummaries(testdata, pkgpath, lp.pkg, a, map[string]bool{}, imported); err != nil {
		t.Fatalf("summarizing the imports of %s: %v", pkgpath, err)
	}
	diags, _, err := framework.RunPackage(fset, lp.files, lp.pkg, lp.info, []*framework.Analyzer{a}, imported)
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, pkgpath, err)
	}
	checkWants(t, lp.files, diags)
}

// importSummaries runs a over every sub-package of golden that pkg
// imports, transitively and dependencies first, and merges the summaries
// each run exports into out. Their diagnostics are not checked here.
func importSummaries(testdata, golden string, pkg *types.Package, a *framework.Analyzer, seen map[string]bool, out *dataflow.PackageSummaries) error {
	for _, imp := range pkg.Imports() {
		path := imp.Path()
		if !strings.HasPrefix(path, golden+"/") || seen[path] {
			continue
		}
		seen[path] = true
		dep := pkgCache[testdata+"\x00"+path]
		if err := importSummaries(testdata, golden, dep.pkg, a, seen, out); err != nil {
			return err
		}
		_, exported, err := framework.RunPackage(fset, dep.files, dep.pkg, dep.info, []*framework.Analyzer{a}, out)
		if err != nil {
			return err
		}
		out.Merge(exported)
	}
	return nil
}

func load(testdata, pkgpath string) *loadedPkg {
	key := testdata + "\x00" + pkgpath
	if lp, ok := pkgCache[key]; ok {
		return lp
	}
	lp := &loadedPkg{}
	pkgCache[key] = lp

	dir := filepath.Join(testdata, "src", filepath.FromSlash(pkgpath))
	entries, err := os.ReadDir(dir)
	if err != nil {
		lp.err = err
		return lp
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		lp.err = fmt.Errorf("no Go files in %s", dir)
		return lp
	}
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			lp.err = err
			return lp
		}
		lp.files = append(lp.files, f)
	}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if st, err := os.Stat(filepath.Join(testdata, "src", filepath.FromSlash(path))); err == nil && st.IsDir() {
			sib := load(testdata, path)
			return sib.pkg, sib.err
		}
		return stdImp.Import(path)
	})
	lp.info = framework.NewInfo()
	tc := &types.Config{Importer: imp}
	lp.pkg, lp.err = tc.Check(pkgpath, fset, lp.files, lp.info)
	return lp
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// expectation is one // want regexp with its anchor line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

var wantRx = regexp.MustCompile(`// want (.*)$`)

func checkWants(t *testing.T, files []*ast.File, diags []framework.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRx.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, lit := range splitLiterals(m[1]) {
					re, err := regexp.Compile(lit)
					if err != nil {
						t.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, lit, err)
						continue
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// splitLiterals parses the space-separated Go string literals after "want".
func splitLiterals(s string) []string {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		var lit string
		switch s[0] {
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return append(out, s[1:])
			}
			lit, s = s[1:1+end], s[2+end:]
		case '"':
			// Find the closing quote, honoring escapes.
			i := 1
			for i < len(s) && (s[i] != '"' || s[i-1] == '\\') {
				i++
			}
			if i >= len(s) {
				return append(out, s[1:])
			}
			unq, err := strconv.Unquote(s[:i+1])
			if err != nil {
				unq = s[1:i]
			}
			lit, s = unq, s[i+1:]
		default:
			// Not a literal: stop.
			return out
		}
		out = append(out, lit)
		s = strings.TrimSpace(s)
	}
	return out
}

package floatcmp_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"dualcdb/internal/analysis/analysistest"
	"dualcdb/internal/analysis/floatcmp"
	"dualcdb/internal/analysis/framework"
)

func TestFloatcmp(t *testing.T) {
	for _, pkg := range []string{"floatcmp"} {
		t.Run(pkg, func(t *testing.T) {
			analysistest.Run(t, "../testdata", floatcmp.Analyzer, pkg)
		})
	}
}

// TestAllowIsLoadBearing checks the call-site suppression end to end: the
// same exact comparison must be flagged without the directive and silent
// with it.
func TestAllowIsLoadBearing(t *testing.T) {
	const tmpl = `package p

func exact(a, b float64) bool {
	return a == b%s
}
`
	for _, tc := range []struct {
		name, directive string
		want            int
	}{
		{"bare", "", 1},
		{"allowed", " //dualvet:allow floatcmp — exact total order", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, "p/p.go", fmt.Sprintf(tmpl, tc.directive), parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			info := framework.NewInfo()
			pkg, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info)
			if err != nil {
				t.Fatal(err)
			}
			diags, err := framework.RunPackage(fset, []*ast.File{f}, pkg, info, []*framework.Analyzer{floatcmp.Analyzer})
			if err != nil {
				t.Fatal(err)
			}
			if len(diags) != tc.want {
				t.Fatalf("want %d diagnostics, got %d: %v", tc.want, len(diags), diags)
			}
		})
	}
}

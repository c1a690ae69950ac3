package unitdriver

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestAnnotationsReportFloatcmp drives the built tool end to end through the
// go command on a two-package module: package b compares two floats exactly.
// The standalone -annotations form must print that finding as a ::error
// line, and the run must fail; package a, which compares within a tolerance,
// must stay silent.
func TestAnnotationsReportFloatcmp(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and runs go vet")
	}
	tmp := t.TempDir()
	tool := filepath.Join(tmp, "dualvet")
	if out, err := exec.Command("go", "build", "-o", tool, "dualcdb/cmd/dualvet").CombinedOutput(); err != nil {
		t.Fatalf("building dualvet: %v\n%s", err, out)
	}
	mod := filepath.Join(tmp, "mod")
	for name, src := range map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"a/a.go": `package a

func Near(x, y float64) bool {
	d := x - y
	return d < 1e-9 && -d < 1e-9
}
`,
		"b/b.go": `package b

import "tmpmod/a"

func Same(x, y float64) bool {
	return a.Near(x, y) || x == y
}
`,
	} {
		path := filepath.Join(mod, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command(tool, "-annotations", "./...")
	cmd.Dir = mod
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
	var stdout strings.Builder
	cmd.Stdout = &stdout
	err := cmd.Run()
	if _, failed := err.(*exec.ExitError); !failed {
		t.Fatalf("dualvet on an exact float comparison: %v, want a failing exit", err)
	}
	out := stdout.String()
	if want := "::error file=b/b.go,line=6,col="; !strings.Contains(out, want) || !strings.Contains(out, "title=dualvet floatcmp::") {
		t.Fatalf("stdout lacks a floatcmp ::error line for b/b.go:6:\n%s", out)
	}
	if strings.Contains(out, "a/a.go") {
		t.Fatalf("a diagnostic on a/a.go, which compares within a tolerance:\n%s", out)
	}
}

// Package golden checks what an example program prints against the
// checked-in testdata/golden.txt beside it, so that every example runs in
// `go test ./...`. Run `go test ./examples/<name> -update` to rewrite the
// file after a change that is meant to move the output.
package golden

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt with the example's output")

// Check runs main with the process's standard output sent to a file and
// requires the output to equal testdata/golden.txt, naming the first line
// that differs.
func Check(t *testing.T, main func()) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	func() {
		defer func() { os.Stdout = stdout }()
		main()
	}()
	got, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) == string(want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(g), len(w)); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("output differs from %s at line %d:\n got: %q\nwant: %q\n(%d lines, golden %d)", path, i+1, gl, wl, len(g), len(w))
		}
	}
}

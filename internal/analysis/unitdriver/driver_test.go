package unitdriver

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestVetxCarriesSummariesAcrossPackages drives the built tool end to end
// through the go command on a two-package module: package b calls a's Stats
// while holding the mutex Stats takes, which lockset can see only through
// the lock summary a's vetx file carries. The standalone -annotations form
// must print that finding as a ::error line, and the run must fail.
func TestVetxCarriesSummariesAcrossPackages(t *testing.T) {
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

import "sync"

type Shard struct {
	Mu sync.Mutex
	n  int
}

func (s *Shard) Stats() int {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	return s.n
}
`,
		"b/b.go": `package b

import "tmpmod/a"

func Locked(s *a.Shard) int {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	return s.Stats()
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
		t.Fatalf("dualvet on a re-entrant call: %v, want a failing exit", err)
	}
	want := "::error file=b/b.go,line=8,col=9,title=dualvet lockset::s.Mu is acquired again through s.Stats()"
	if !strings.Contains(stdout.String(), want) {
		t.Fatalf("stdout lacks %q:\n%s", want, stdout.String())
	}
}

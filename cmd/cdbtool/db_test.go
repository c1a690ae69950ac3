package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSessionDBSaveOpenRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shell.cdb")
	out := runScript(t, []string{
		"gen 120 small 4",
		"index 3 t2",
		"exist y >= 0.4x + 5",
		"dbsave " + path,
		"gen 3 small 9", // clobber the session
		"dbopen " + path,
		"exist y >= 0.4x + 5",
		"stats",
	})
	if !strings.Contains(out, "database saved: 120 tuples") {
		t.Errorf("dbsave missing:\n%s", out)
	}
	if !strings.Contains(out, "database opened: 120 tuples, k=3") {
		t.Errorf("dbopen missing:\n%s", out)
	}
	// The query before saving and after reopening must return the same
	// number of results: extract both result lines.
	lines := strings.Split(out, "\n")
	var results []string
	for _, l := range lines {
		if strings.HasPrefix(l, "EXIST(") {
			results = append(results, l[:strings.Index(l, "  (")])
		}
	}
	if len(results) != 2 || results[0] != results[1] {
		t.Errorf("answers differ across dbsave/dbopen:\n%v", results)
	}
}

func TestSessionDBSaveRequiresIndex(t *testing.T) {
	path := filepath.Join(t.TempDir(), "noidx.cdb")
	out := captureErr(t, []string{"gen 10 small 1"}, "dbsave "+path)
	if !strings.Contains(out, "build a dual index first") {
		t.Errorf("error missing:\n%s", out)
	}
}

// TestSessionDBOpenRefusesPreviousFormat: a DCDB0005 file — the real one in
// internal/core/testdata, whose nodes have float64 handicap slots and no
// child bounds — is refused by its magic instead of read.
func TestSessionDBOpenRefusesPreviousFormat(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "internal", "core", "testdata", "dcdb0005.cdb"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "old.cdb")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if out := captureErr(t, nil, "dbopen "+path); !strings.Contains(out, "bad catalog magic") || !strings.Contains(out, "DCDB0005") {
		t.Errorf("dbopen of a previous-format file: %s", out)
	}
}

// TestSessionQueryStatsLine: on a stored slope every retrieved entry is
// decided on its key and put into the answer, none is evaluated and none is a
// false hit; within Eps of one the query is an ordinary T2 query.
func TestSessionQueryStatsLine(t *testing.T) {
	out := runScript(t, []string{
		"insert x >= 0 && y >= 0 && x + y <= 4",
		"insert y >= 8",
		"insert y <= -3",
		"index 3 t2", // S = {−1, 0, 1}
		"exist y >= 1",
		"all y <= 5",
		"exist y >= 0.0000000005x + 1",
	})
	for _, want := range []string{
		"EXIST(y >= 0x + 1): [1 2]  (path=restricted, candidates=2, decided=2, falseHits=0, duplicates=0,",
		"ALL(y <= 0x + 5): [1 3]  (path=restricted, candidates=2, decided=2, falseHits=0, duplicates=0,",
		"EXIST(y >= 5e-10x + 1): [1 2]  (path=t2, candidates=",
		"funnel: candidates 2 → duplicates 0 → sure 2 / rejected on key 0 (decided by tangent 0) → evaluated 0 → false hits 0 → results 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// captureErr runs setup commands (which must succeed) and then one failing
// command, returning its error text.
func captureErr(t *testing.T, setup []string, failing string) string {
	t.Helper()
	_ = runScript(t, setup) // separate session is fine: gen is deterministic
	var sb strings.Builder
	s := newTestSession(&sb)
	for _, line := range setup {
		if err := s.exec(line); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
	}
	err := s.exec(failing)
	if err == nil {
		t.Fatalf("%q should fail", failing)
	}
	return err.Error()
}

package main

import (
	"bufio"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dualcdb"
)

// runScript feeds commands through a session and returns the output.
func runScript(t *testing.T, commands []string) string {
	t.Helper()
	var sb strings.Builder
	s := &session{rel: dualcdb.NewRelation(2), out: bufio.NewWriter(&sb)}
	for _, line := range commands {
		if err := s.exec(line); err != nil {
			s.out.Flush()
			t.Fatalf("%q: %v (output so far: %s)", line, err, sb.String())
		}
	}
	s.out.Flush()
	return sb.String()
}

func TestSessionInsertIndexQuery(t *testing.T) {
	out := runScript(t, []string{
		"insert x >= 0 && y >= 0 && x + y <= 4",
		"insert y >= 8",
		"index 3 t2",
		"exist y >= 0.7x + 1",
		"all y >= 6",
		"stats",
	})
	for _, want := range []string{
		"inserted tuple 1",
		"inserted tuple 2 (infinite object)",
		"dual index built: k=3",
		"EXIST(y >= 0.7x + 1): [1 2]",
		"ALL(y >= 0x + 6): [2]",
		"relation: 2 tuples",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSessionTupleQuery(t *testing.T) {
	out := runScript(t, []string{
		"insert x >= 1 && x <= 2 && y >= 1 && y <= 2",
		"insert x >= 8 && x <= 9 && y >= 8 && y <= 9",
		"index 2 t2",
		"all x >= 0 && x <= 5 && y >= 0 && y <= 5",
		"exist x >= 0 && x <= 5 && y >= 0 && y <= 5",
	})
	if !strings.Contains(out, "ALL(") || !strings.Contains(out, ": [1]") {
		t.Errorf("tuple ALL missing:\n%s", out)
	}
	if !strings.Contains(out, "EXIST(") {
		t.Errorf("tuple EXIST missing:\n%s", out)
	}
}

func TestSessionGenAndRIndex(t *testing.T) {
	out := runScript(t, []string{
		"gen 100 small 3",
		"rindex",
		"exist y >= 0",
	})
	if !strings.Contains(out, "generated 100 small tuples") {
		t.Errorf("gen missing:\n%s", out)
	}
	if !strings.Contains(out, "R+-tree built") {
		t.Errorf("rindex missing:\n%s", out)
	}
	if !strings.Contains(out, "path=rplus-EXIST") {
		t.Errorf("R+ query path missing:\n%s", out)
	}
}

// TestSessionWriteDropsRPlus: the R⁺-tree is built once, so a write drops
// it with one note, and the next query answers from the relation as it
// now stands — by scan, or by the dual index when there is one.
func TestSessionWriteDropsRPlus(t *testing.T) {
	const note = "note: R+-tree index dropped"
	writes := []string{
		"insert x >= 0 && y >= 0 && x + y <= 4",
		"insert x >= 1 && x <= 3 && y >= 5 && y <= 6",
		"rindex",
		"delete 1",
		"insert x >= 6 && x <= 7 && y >= 0 && y <= 1",
		"exist y >= 0.5x + 1",
	}
	out := runScript(t, writes)
	if !strings.Contains(out, "inserted tuple 3") {
		t.Errorf("insert after the drop missing:\n%s", out)
	}
	if n := strings.Count(out, note); n != 1 {
		t.Errorf("%d drop notes, want 1:\n%s", n, out)
	}
	// The same history without the R⁺-tree is the scan's answer.
	scan := runScript(t, slices.Delete(slices.Clone(writes), 2, 3))
	want := scan[strings.LastIndex(strings.TrimSuffix(scan, "\n"), "\n")+1:]
	if !strings.HasSuffix(out, want) || !strings.Contains(want, "EXIST(y >= 0.5x + 1): [2]") {
		t.Errorf("answer after the drop is not the scan's %q:\n%s", want, out)
	}

	out = runScript(t, []string{
		"insert x >= 0 && y >= 0 && x + y <= 4",
		"index 2 t2",
		"rindex",
		"insert x >= 1 && x <= 3 && y >= 5 && y <= 6",
		"exist y >= 0.5x + 1",
	})
	if !strings.Contains(out, note) || !strings.Contains(out, "EXIST(y >= 0.5x + 1): [1 2]  (path=t2") {
		t.Errorf("a write beside the dual index must drop the R+-tree:\n%s", out)
	}
}

func TestSessionSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rel.cdb")
	out := runScript(t, []string{
		"insert x >= 0 && y >= 0 && x + y <= 4",
		"insert y >= 2x + 1",
		"save " + path,
		"gen 5 small 1", // overwrite in-session
		"load " + path,
		"index 2 t2",
		"exist y >= 0",
		"stats",
	})
	if !strings.Contains(out, "saved 2 tuples") {
		t.Errorf("save missing:\n%s", out)
	}
	if !strings.Contains(out, "loaded 2 tuples") {
		t.Errorf("load missing:\n%s", out)
	}
	if !strings.Contains(out, "relation: 2 tuples") {
		t.Errorf("reloaded relation wrong:\n%s", out)
	}
}

func TestSessionErrors(t *testing.T) {
	var sb strings.Builder
	s := &session{rel: dualcdb.NewRelation(2), out: bufio.NewWriter(&sb)}
	for _, bad := range []string{
		"insert q >= 1",
		"delete notanumber",
		"index 0",
		"gen 5",
		"gen -1 small",
		"exist x >= 0 || y >= 0",
		"frobnicate",
		"load /nonexistent/path/xyz",
	} {
		if err := s.exec(bad); err == nil {
			t.Errorf("%q should fail", bad)
		}
	}
}

func TestParseHalfPlaneQuery(t *testing.T) {
	q, err := parseHalfPlaneQuery(dualcdb.EXIST, "y >= 0.5x + 2")
	if err != nil {
		t.Fatal(err)
	}
	if q.Kind != dualcdb.EXIST || math.Abs(q.Slope[0]-0.5) > 1e-12 || math.Abs(q.Intercept-2) > 1e-12 {
		t.Fatalf("parsed %+v", q)
	}
	// Flipped form: 2y <= 4x + 6 ⇔ y <= 2x + 3.
	q, err = parseHalfPlaneQuery(dualcdb.ALL, "2y <= 4x + 6")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(q.Slope[0]-2) > 1e-12 || math.Abs(q.Intercept-3) > 1e-12 {
		t.Fatalf("parsed %+v", q)
	}
	if _, err := parseHalfPlaneQuery(dualcdb.ALL, "x >= 1"); err == nil {
		t.Fatal("vertical query must be rejected")
	}
	if _, err := parseHalfPlaneQuery(dualcdb.ALL, "y >= 0 && x >= 0"); err == nil {
		t.Fatal("multi-constraint text must be rejected by the half-plane parser")
	}
}

// newTestSession builds a session writing to sb (helper shared with
// db_test.go).
func newTestSession(sb *strings.Builder) *session {
	return &session{rel: dualcdb.NewRelation(2), out: bufio.NewWriter(sb)}
}

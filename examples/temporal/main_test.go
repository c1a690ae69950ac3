package main

import (
	"testing"

	"dualcdb/examples/internal/golden"
)

// TestOutput runs the example and compares what it prints with
// testdata/golden.txt.
func TestOutput(t *testing.T) { golden.Check(t, main) }

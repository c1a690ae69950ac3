package core

import (
	"os"
	"testing"

	"dualcdb/internal/btree"
)

// TestMain runs every test of the package with the btree view guard on
// (DESIGN.md §11.2): a sweep that hands its visitor a leaf it has already
// released panics instead of reading another page's bytes.
func TestMain(m *testing.M) {
	btree.EnableViewGuard(true)
	os.Exit(m.Run())
}

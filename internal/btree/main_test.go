package btree

import (
	"os"
	"testing"
)

// TestMain runs every test of the package with the view guard on
// (DESIGN.md §11.2): a LeafView or entry region read after its frame's
// release panics instead of reading another page's bytes.
func TestMain(m *testing.M) {
	EnableViewGuard(true)
	os.Exit(m.Run())
}

// Package lockorder holds the golden test of lockset's re-entry check: a
// call whose callee takes a lock the caller may already hold. The check
// is lockset's Takes effect; this package has no code of its own.
package lockorder_test

import (
	"testing"

	"dualcdb/internal/analysis/analysistest"
	"dualcdb/internal/analysis/lockset"
)

func TestLockorder(t *testing.T) {
	for _, pkg := range []string{"lockorder"} {
		t.Run(pkg, func(t *testing.T) {
			analysistest.Run(t, "../testdata", lockset.Analyzer, pkg)
		})
	}
}

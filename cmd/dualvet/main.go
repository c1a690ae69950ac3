// Command dualvet is the vet tool for the repository's float comparison
// discipline (DESIGN.md §7): it registers one analyzer, floatcmp, which
// flags exact ==, != and switch comparisons on floating-point values outside
// the epsilon helpers. It stays because two mutations of the audit
// (scripts/dualvet_audit.sh, DESIGN.md §7.4) are caught by it and by no test.
// The resource, error-path and concurrency disciplines the suite once checked
// statically are checked by tests: the fault sweep over whole engine
// histories (internal/core TestFaultSweep), the race detector and the btree
// view guard.
//
// Run it through the go command, which supplies type information for every
// compilation unit:
//
//	go build -o /tmp/dualvet ./cmd/dualvet
//	go vet -vettool=/tmp/dualvet ./...
//
// or directly — `dualvet ./...` re-executes itself under go vet.
// `dualvet -annotations ./...` also prints every diagnostic as a GitHub
// Actions ::error line.
package main

import (
	"dualcdb/internal/analysis/floatcmp"
	"dualcdb/internal/analysis/unitdriver"
)

func main() {
	unitdriver.Main(floatcmp.Analyzer)
}

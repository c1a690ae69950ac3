// Command dualvet is the multichecker for the repository's machine-checked
// invariants (DESIGN.md §7, §10, §15): float comparison discipline, ±Inf
// sentinel arithmetic, atomic/plain field mixing, shard-lock re-entrancy,
// dropped I/O errors, leaked page-frame pins, leaked observability
// spans, leaked MVCC snapshots, mutex lock-set balance, declared field
// guards, and frozen-after-publish immutability.
//
// Run it through the go command, which supplies type information for every
// compilation unit:
//
//	go build -o /tmp/dualvet ./cmd/dualvet
//	go vet -vettool=/tmp/dualvet ./...
//
// or directly — `dualvet ./...` re-executes itself under go vet. A single
// analyzer runs with its enable flag: `go vet -vettool=/tmp/dualvet
// -floatcmp ./...`. `dualvet -json ./...` emits machine-readable
// diagnostics; `dualvet -annotations ./...` emits GitHub Actions ::error
// lines.
package main

import (
	"dualcdb/internal/analysis/atomicpub"
	"dualcdb/internal/analysis/errsink"
	"dualcdb/internal/analysis/floatcmp"
	"dualcdb/internal/analysis/frozen"
	"dualcdb/internal/analysis/infguard"
	"dualcdb/internal/analysis/lockorder"
	"dualcdb/internal/analysis/lockset"
	"dualcdb/internal/analysis/pinleak"
	"dualcdb/internal/analysis/snapleak"
	"dualcdb/internal/analysis/spanleak"
	"dualcdb/internal/analysis/unitdriver"
)

func main() {
	unitdriver.Main(
		floatcmp.Analyzer,
		infguard.Analyzer,
		lockorder.Analyzer,
		lockset.Analyzer,
		atomicpub.Analyzer,
		frozen.Analyzer,
		errsink.Analyzer,
		pinleak.Analyzer,
		snapleak.Analyzer,
		spanleak.Analyzer,
	)
}

package geom_test

import (
	"testing"

	"dualcdb/internal/constraint"
	"dualcdb/internal/geom"
	"dualcdb/internal/workload"
)

// TestExtension2MatchesEnumerationOnWorkload holds the 2-D extension to the
// d-generic enumeration, bit for bit, on 2 000 workload.Small tuples, the
// benchmark's kind, and on as many with a third unbounded.
func TestExtension2MatchesEnumerationOnWorkload(t *testing.T) {
	for _, cfg := range []workload.Config{
		{N: 2000, Size: workload.Small, Seed: 1},
		{N: 2000, Size: workload.Small, Seed: 2, UnboundedFraction: 0.3},
	} {
		rel, err := workload.GenerateRelation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rel.Scan(func(tup *constraint.Tuple) bool {
			if d := geom.DiffExtension2(tup.Constraints()); d != "" {
				t.Errorf("seed %d tuple %d: %s", cfg.Seed, tup.ID(), d)
			}
			return true
		})
	}
}

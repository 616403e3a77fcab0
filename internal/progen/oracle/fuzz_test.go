package oracle

import (
	"testing"

	"debugdet/internal/progen"
)

// fuzzBudget keeps each fuzz execution fast so the engine can explore
// many seeds per second; the deterministic sweep in oracle_test.go uses
// the larger corpus budget.
const fuzzBudget = 16

// FuzzDifferentialOracles drives the full oracle harness from
// fuzzer-provided seeds: replay reproduction, DF monotonicity,
// worker-count invariance and shrink soundness must
// hold on every generated program the engine can reach.
func FuzzDifferentialOracles(f *testing.F) {
	for s := int64(0); s < int64(len(progen.Families())); s++ {
		f.Add(s)
	}
	f.Add(int64(997)) // a deadlock-family seed whose production run completes
	f.Fuzz(func(t *testing.T, seed int64) {
		p := progen.ForSeed(seed)
		if _, err := Check(p, fuzzBudget); err != nil {
			t.Fatal(err)
		}
	})
}

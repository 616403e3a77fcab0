package progen

import (
	"testing"

	"debugdet/internal/flightrec"
	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// TestSustainedDefaultsFail pins the sustained template's catalog
// defaults: the pinned (gen, seed) pair manifests the stale read, the run
// is roughly 10x the base dynokv-staleread scenario, and generation is
// deterministic in the gen parameter.
func TestSustainedDefaultsFail(t *testing.T) {
	s := Sustained()
	opts := scenario.ExecOptions{Seed: s.DefaultSeed}
	a := s.Exec(opts)
	failed, sig := s.CheckFailure(a)
	if !failed || sig == "" {
		t.Fatalf("pinned defaults (gen=%d, seed=%d) do not fail", sustainedGen, s.DefaultSeed)
	}
	if n := a.Trace.Len(); n < 20000 {
		t.Fatalf("sustained run is only %d events; want ~10x the base scenario (>= 20000)", n)
	}
	b := s.Exec(opts)
	if !trace.EventsEqual(a.Trace, b.Trace, false) {
		t.Fatal("sustained generation is not deterministic")
	}
}

// TestSustainedFixedVariantHealthy: the template's fix predicate (majority
// quorums via the shared dynokv toggle) removes the failure under
// sustained traffic too.
func TestSustainedFixedVariantHealthy(t *testing.T) {
	if testing.Short() {
		t.Skip("sustained run in -short mode")
	}
	s := Sustained()
	v := s.Exec(scenario.ExecOptions{Seed: s.DefaultSeed, Params: scenario.Params{"fixed": 1}})
	if failed, sig := s.CheckFailure(v); failed {
		t.Fatalf("fixed sustained run still fails with %q", sig)
	}
	if v.Result.Outcome != vm.OutcomeOK {
		t.Fatalf("fixed sustained run: %v", v.Result.Outcome)
	}
}

// TestSustainedFlightRotation is the satellite contract: a sustained run
// under the flight recorder rotates many segments and spills each as it
// seals, while recorder memory stays orders of magnitude below the event volume.
func TestSustainedFlightRotation(t *testing.T) {
	s := Sustained()
	res, err := flightrec.Record(s, s.DefaultSeed, nil, flightrec.Options{
		SpillDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Events < 20000 {
		t.Fatalf("sustained flight recording saw only %d events", res.Events)
	}
	if res.Segments < 10 {
		t.Fatalf("only %d segments sealed; rotation is not exercised", res.Segments)
	}
	if res.Spilled != res.Segments {
		t.Fatalf("spilled %d of %d sealed segments; a sealed segment spills at once", res.Spilled, res.Segments)
	}
	if res.PeakMemBytes >= res.LogBytes/4 {
		t.Fatalf("peak recorder memory %d is not small against the %d-byte event volume",
			res.PeakMemBytes, res.LogBytes)
	}
	lo, hi := flightrec.Retained(res.Store)
	if lo != 0 || hi != res.Events {
		t.Fatalf("retained [%d, %d), want [0, %d)", lo, hi, res.Events)
	}
	if !res.Failed || res.FailureSig == "" {
		t.Fatalf("sustained flight recording lost the failure: failed=%v sig=%q", res.Failed, res.FailureSig)
	}
}

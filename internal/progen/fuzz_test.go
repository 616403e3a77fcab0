package progen

import (
	"testing"

	"debugdet/internal/flightrec"
	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// seedCorpus primes the fuzz target with one seed per family plus the
// catalog's pinned generator seeds (ForSeed uses the whole seed as the
// generator seed, and each pinned gen was chosen congruent to its family
// index modulo the family count, so the raw gens are their own fuzz
// seeds).
func seedCorpus(f *testing.F) {
	for s := int64(0); s < int64(len(Families())); s++ {
		f.Add(s)
	}
	for _, gen := range []int64{atomicityGen, lockCycleGen, lostMessageGen, oversellGen, crashPointGen} {
		f.Add(gen)
	}
}

// FuzzProgramGeneration drives the generator itself from fuzzer-provided
// seeds: every seed must map to a valid program — it builds, runs to a
// non-aborted outcome under a tight step limit, and regenerating it
// yields a bit-identical execution.
func FuzzProgramGeneration(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, seed int64) {
		p := ForSeed(seed)
		opts := scenario.ExecOptions{Seed: p.Seed, Params: p.Params, MaxSteps: 1 << 16}
		a := p.Scenario.Exec(opts)
		if a.Result.Outcome == vm.OutcomeAborted {
			t.Fatalf("seed %d: %s (gen=%d) hit the step limit", seed, p.Scenario.Name, p.GenSeed)
		}
		b := p.Scenario.Exec(opts)
		if !trace.EventsEqual(a.Trace, b.Trace, false) {
			t.Fatalf("seed %d: generation is not deterministic", seed)
		}
		if failed, sig := p.Scenario.CheckFailure(a); failed && sig == "" {
			t.Fatalf("seed %d: failure without a signature", seed)
		}
	})
}

// FuzzSustainedFlightRecording drives the sustained long-running template
// through the flight recorder from fuzzer-provided generator seeds: every
// generated traffic shape must rotate segments, spill each to disk as it
// seals, keep recorder memory far below the event volume, and reopen
// with the whole run retained and the event count intact.
// FuzzCrashPoint sweeps the crash-point durability template over
// fuzzer-provided (generator, environment) seed pairs — the generator
// shapes the WAL writer, the environment seed picks the crash plan. Every
// generated program must execute deterministically, a failure must always
// carry the lost-record signature, and the fixed variant — which only
// acknowledges records the fsync watermark covers — must never lose an
// acknowledged record on the same crash plan.
func FuzzCrashPoint(f *testing.F) {
	f.Add(int64(crashPointGen), int64(crashPointSeed))
	for s := int64(0); s < 6; s++ {
		f.Add(s, s*3+1)
	}
	f.Fuzz(func(t *testing.T, gen, seed int64) {
		g := Normalize(gen)
		s := Scenario(CrashPoint)
		opts := scenario.ExecOptions{Seed: seed, Params: scenario.Params{"gen": g, "fixed": 0}, MaxSteps: 1 << 16}
		a := s.Exec(opts)
		if a.Result.Outcome == vm.OutcomeAborted {
			t.Fatalf("gen %d seed %d: hit the step limit", g, seed)
		}
		b := s.Exec(opts)
		if !trace.EventsEqual(a.Trace, b.Trace, false) {
			t.Fatalf("gen %d seed %d: generation is not deterministic", g, seed)
		}
		if failed, sig := s.CheckFailure(a); failed && sig != "fuzz:lost-record" {
			t.Fatalf("gen %d seed %d: failure signature %q", g, seed, sig)
		}
		fa := s.Exec(scenario.ExecOptions{Seed: seed, Params: scenario.Params{"gen": g, "fixed": 1}, MaxSteps: 1 << 16})
		if fa.Result.Outcome == vm.OutcomeAborted {
			t.Fatalf("gen %d seed %d: fixed variant hit the step limit", g, seed)
		}
		if failed, _ := s.CheckFailure(fa); failed {
			t.Fatalf("gen %d seed %d: fixed variant lost an acknowledged record", g, seed)
		}
	})
}

func FuzzSustainedFlightRecording(f *testing.F) {
	f.Add(int64(sustainedGen))
	for s := int64(0); s < 4; s++ {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		g := Normalize(seed)
		s := Sustained()
		res, err := flightrec.Record(s, s.DefaultSeed, scenario.Params{"gen": g}, flightrec.Options{
			SpillDir: t.TempDir(),
		})
		if err != nil {
			t.Fatalf("gen %d: %v", g, err)
		}
		if res.Segments < 10 || res.Spilled != res.Segments {
			t.Fatalf("gen %d: %d segments, %d spilled; sustained traffic must rotate and spill",
				g, res.Segments, res.Spilled)
		}
		if res.PeakMemBytes >= res.LogBytes/4 {
			t.Fatalf("gen %d: peak recorder memory %d vs %d event bytes; the one-segment bound is broken",
				g, res.PeakMemBytes, res.LogBytes)
		}
		lo, hi := flightrec.Retained(res.Store)
		if lo != 0 || hi != res.Events || res.Store.Meta().EventCount != res.Events {
			t.Fatalf("gen %d: reopened store covers [%d, %d) of %d events",
				g, lo, hi, res.Events)
		}
	})
}

package dynokv

import (
	"bytes"
	"strings"
	"testing"

	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// expectCauses asserts the run failed with the given signature and exactly
// the given root causes.
func expectCauses(t *testing.T, s *scenario.Scenario, v *scenario.RunView, wantSig string, want ...string) {
	t.Helper()
	failed, sig := s.CheckFailure(v)
	if !failed || sig != wantSig {
		t.Fatalf("failed=%v sig=%q, want %q (%s)", failed, sig, wantSig, Stats(v))
	}
	causes := s.PresentCauses(v)
	if len(causes) != len(want) {
		t.Fatalf("causes = %v, want %v (%s)", causes, want, Stats(v))
	}
	for i := range want {
		if causes[i] != want[i] {
			t.Fatalf("causes = %v, want %v", causes, want)
		}
	}
}

func TestStaleReadDefaultSeed(t *testing.T) {
	s := StaleRead()
	v := s.Exec(scenario.ExecOptions{Seed: s.DefaultSeed})
	expectCauses(t, s, v, "dynokv:staleread", "weak-quorum")
	if v.Result.Outcome != vm.OutcomeOK {
		t.Fatalf("outcome = %v; staleness must be silent", v.Result.Outcome)
	}
}

func TestResurrectDefaultSeed(t *testing.T) {
	s := Resurrect()
	v := s.Exec(scenario.ExecOptions{Seed: s.DefaultSeed})
	expectCauses(t, s, v, "dynokv:resurrect", "tombstone-gc")
	if v.Machine.CellByName(CellRewrites).AsInt() != 0 {
		t.Fatal("production run must not contain application rewrites")
	}
}

func TestLostHintDefaultSeed(t *testing.T) {
	s := LostHint()
	v := s.Exec(scenario.ExecOptions{Seed: s.DefaultSeed})
	expectCauses(t, s, v, "dynokv:lostwrite", "hint-abandoned")
	if v.Machine.CellByName(CellAckedPuts).AsInt() == 0 {
		t.Fatal("no write was ever acknowledged; the loss must be of acked writes")
	}
}

func TestFixedVariantsNeverFail(t *testing.T) {
	for _, f := range FixedVariants() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			for seed := int64(0); seed < 12; seed++ {
				v := f.Exec(scenario.ExecOptions{Seed: seed})
				if v.Result.Outcome != vm.OutcomeOK {
					t.Fatalf("seed %d: outcome %v (%v)", seed, v.Result.Outcome, v.Result.Terminal)
				}
				if failed, sig := f.CheckFailure(v); failed {
					t.Fatalf("seed %d: fixed build fails with %q (%s)", seed, sig, Stats(v))
				}
			}
		})
	}
}

// TestClusterRunsAreDeterministic: same seed ⇒ identical event trace and
// identical serialized bytes (the trace-hash property record/replay needs).
func TestClusterRunsAreDeterministic(t *testing.T) {
	for _, s := range Family() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			a := s.Exec(scenario.ExecOptions{Seed: s.DefaultSeed})
			b := s.Exec(scenario.ExecOptions{Seed: s.DefaultSeed})
			if !trace.EventsEqual(a.Trace, b.Trace, false) {
				t.Fatal("identical cluster runs produced different traces")
			}
			var ba, bb bytes.Buffer
			if _, err := trace.Encode(&ba, a.Trace); err != nil {
				t.Fatal(err)
			}
			if _, err := trace.Encode(&bb, b.Trace); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
				t.Fatal("trace serializations differ between identical runs")
			}
		})
	}
}

// The injection tests below force each scenario's environment fault on a
// seed where the code defect does not manifest, showing the alternative
// root cause produces the same failure signature — the ambiguity
// inference-based replay can fall into.

func TestWipeInjectionProducesWipeCause(t *testing.T) {
	s := StaleRead()
	prod := productionInputs(0, s.DefaultParams)
	v := s.Exec(scenario.ExecOptions{
		Seed: 0, // verified non-manifesting for the quorum bug
		Inputs: vm.InputSourceFunc(func(stream string, index int) trace.Value {
			if strings.HasPrefix(stream, StreamWipe) {
				return trace.Int(wipeDomain - 1)
			}
			return prod.Next(stream, index)
		}),
	})
	expectCauses(t, s, v, "dynokv:staleread", "replica-wipe")
}

func TestRewriteInjectionProducesRewriteCause(t *testing.T) {
	s := Resurrect()
	// Seed 3: the injected rewrites alone explain the failure (the extra
	// rewrite traffic perturbs timing, so on many seeds the GC bug fires
	// too; this seed keeps the causes separable).
	prod := productionInputs(3, s.DefaultParams)
	v := s.Exec(scenario.ExecOptions{
		Seed: 3,
		Inputs: vm.InputSourceFunc(func(stream string, index int) trace.Value {
			if stream == StreamRewrite {
				return trace.Int(rewriteDomain - 1)
			}
			return prod.Next(stream, index)
		}),
	})
	expectCauses(t, s, v, "dynokv:resurrect", "app-rewrite")
}

func TestHintWipeInjectionProducesWipeCause(t *testing.T) {
	s := LostHint()
	prod := productionInputs(0, s.DefaultParams)
	v := s.Exec(scenario.ExecOptions{
		Seed: 0,
		Inputs: vm.InputSourceFunc(func(stream string, index int) trace.Value {
			if strings.HasPrefix(stream, StreamHintWipe) {
				return trace.Int(hintWipeDomain - 1)
			}
			return prod.Next(stream, index)
		}),
	})
	expectCauses(t, s, v, "dynokv:lostwrite", "hint-agent-wipe")
}

func TestLostHintAcksAreSloppy(t *testing.T) {
	// Every acknowledged write in the buggy default run must have reached
	// W somehow — real replicas or hints — and the run's losses must be a
	// subset of the acked writes.
	s := LostHint()
	v := s.Exec(scenario.ExecOptions{Seed: s.DefaultSeed})
	acked, _ := v.LastOutput(OutAcked)
	lost, _ := v.LastOutput(OutLost)
	if acked == 0 || lost == 0 || lost > acked {
		t.Fatalf("acked=%d lost=%d: losses must be of acknowledged writes", acked, lost)
	}
}

func TestScalesWithParameters(t *testing.T) {
	s := StaleRead()
	small := s.Exec(scenario.ExecOptions{Seed: 3, Params: scenario.Params{"clients": 2, "keys": 1, "rounds": 1}})
	big := s.Exec(scenario.ExecOptions{Seed: 3, Params: scenario.Params{"clients": 4, "keys": 3, "rounds": 4}})
	if big.Result.Steps <= small.Result.Steps {
		t.Fatalf("workload does not scale: %d vs %d steps", big.Result.Steps, small.Result.Steps)
	}
}

func TestSearchDomainsCoverFaults(t *testing.T) {
	// The declared input domains must make every fault value reachable for
	// inference (that is how the wrong-root-cause hazard arises) while the
	// production inputs keep the faults off.
	for _, s := range Family() {
		prod := s.Inputs(s.DefaultSeed, s.DefaultParams)
		src := s.SearchSource(11)
		for _, d := range s.InputDomains {
			sawMax := false
			for i := 0; i < 400 && !sawMax; i++ {
				v := src.Next(d.Stream, i).AsInt()
				if v < d.Min || v > d.Max {
					t.Fatalf("%s: domain violated for %s: %d", s.Name, d.Stream, v)
				}
				sawMax = v == d.Max
			}
			faulty := strings.HasPrefix(d.Stream, StreamWipe) ||
				strings.HasPrefix(d.Stream, StreamHintWipe) || d.Stream == StreamRewrite
			if faulty {
				if !sawMax {
					t.Errorf("%s: search never samples the fault value of %s", s.Name, d.Stream)
				}
				for i := 0; i < 50; i++ {
					if prod.Next(d.Stream, i).AsInt() != 0 {
						t.Fatalf("%s: production inputs trigger fault stream %s", s.Name, d.Stream)
					}
				}
			}
		}
	}
}

package replay

import (
	"strings"
	"testing"

	"debugdet/internal/rcse"
	"debugdet/internal/record"
	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
	"debugdet/internal/workload"
)

// recordRCSE captures a debug-rcse recording of the scenario's default
// run: control streams forced, schedule complete, data plane re-drawn at
// replay time (what core.RecordOnly assembles, minus code selection).
func recordRCSE(t *testing.T, name string) (*scenario.Scenario, *record.Recording) {
	t.Helper()
	s, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := rcse.Config{ControlStreams: s.ControlStreams}
	factory := func(m *vm.Machine) (record.Policy, []vm.Observer) {
		setup := cfg.Build(m)
		return setup.Policy, setup.Observers
	}
	rec, _, err := record.RecordWithPolicy(s, record.DebugRCSE, factory, s.DefaultSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s, rec
}

// TestForkedReplayMatchesScratch pins the fork-equivalence contract at
// the replay layer: for every search-shaped model (debug-rcse, output,
// failure), Replay with Fork on accepts the identical result — same Ok,
// Attempts and Note, bit-identical view — as the from-scratch replay,
// while never executing more events.
func TestForkedReplayMatchesScratch(t *testing.T) {
	cases := []struct {
		scenario string
		model    record.Model
	}{
		{"bank", record.DebugRCSE},
		{"sum", record.Output},
		{"overflow", record.Failure},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.scenario+"/"+tc.model.String(), func(t *testing.T) {
			var s *scenario.Scenario
			var rec *record.Recording
			if tc.model == record.DebugRCSE {
				s, rec = recordRCSE(t, tc.scenario)
			} else {
				s, rec, _ = recordScenario(t, tc.scenario, tc.model)
			}
			base := Replay(s, rec, Options{Budget: 120, Workers: 1})
			for _, fo := range []Options{
				{Budget: 120, Workers: 1, Fork: true},
				{Budget: 120, Workers: 4, Fork: true},
			} {
				fork := Replay(s, rec, fo)
				if base.Ok != fork.Ok || base.Attempts != fork.Attempts || base.Note != fork.Note {
					t.Fatalf("forked replay diverges: ok=%v attempts=%d note=%q vs ok=%v attempts=%d note=%q",
						fork.Ok, fork.Attempts, fork.Note, base.Ok, base.Attempts, base.Note)
				}
				if (base.View == nil) != (fork.View == nil) {
					t.Fatal("one replay has a view, the other does not")
				}
				if base.View != nil && !trace.EventsEqual(base.View.Trace, fork.View.Trace, false) {
					t.Fatal("forked replay produced a different event sequence")
				}
				if fork.WorkSteps > base.WorkSteps {
					t.Fatalf("forked replay executed more steps (%d) than scratch (%d)",
						fork.WorkSteps, base.WorkSteps)
				}
			}
		})
	}
}

// TestReplayValidatesOptions pins Options.Validate wiring: out-of-domain
// knobs surface as a clean error result from every model dispatch,
// before any candidate executes.
func TestReplayValidatesOptions(t *testing.T) {
	s, rec := recordRCSE(t, "bank")
	for name, o := range map[string]Options{
		"workers": {Workers: -1},
		"budget":  {Budget: -3},
	} {
		res := Replay(s, rec, o)
		if res.Err == nil || res.Ok || res.View != nil || res.Attempts != 0 {
			t.Fatalf("%s: invalid options not rejected: err=%v ok=%v attempts=%d",
				name, res.Err, res.Ok, res.Attempts)
		}
		if res.Note != "invalid options" {
			t.Fatalf("%s: note = %q", name, res.Note)
		}
		if !strings.Contains(res.Err.Error(), "infer:") {
			t.Fatalf("%s: error %q does not identify the source", name, res.Err)
		}
	}
}

package replay

import (
	"strings"
	"testing"

	"debugdet/internal/rcse"
	"debugdet/internal/record"
	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/workload"
)

// recordRCSE captures a debug-rcse recording of the scenario's default
// run: control streams recorded, schedule complete, data plane re-drawn
// at replay time (what core.Record assembles).
// With undeclared, the scenario's ControlStreams are dropped first, as for
// an SDK author who declares none: the recording then forces the schedule
// alone.
func recordRCSE(t *testing.T, name string, undeclared bool) (*scenario.Scenario, *record.Recording) {
	t.Helper()
	s, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	if undeclared {
		s.ControlStreams = nil
	}
	run, _ := record.Run(s, s.DefaultSeed, nil, 0, 0)
	rec, _ := record.Project(s, run, nil, record.DebugRCSE, rcse.NewPolicy(run.Machine, s.ControlStreams))
	return s, rec
}

// TestForkedReplayMatchesScratch pins two contracts of the one candidate
// loop every search-shaped model (debug-rcse, output, failure) replays
// through, infer.Search. Worker invariance: the from-scratch replay at 4
// workers has the same Ok, Attempts, Note, view and WorkSteps as at 1.
// Fork equivalence: Replay with Fork on accepts the identical result at 1
// and 4 workers, while never executing more events. The RCSE cases that
// take more than one try pin the candidate loop's input derivation:
// disk-snapres needs 3 tries, disk-tornwal with no declared streams 7, and
// msgdrop with none is still not accepted after the 8 RCSE allows; a
// replay that fails keeps its last try as its view.
func TestForkedReplayMatchesScratch(t *testing.T) {
	cases := []struct {
		scenario   string
		model      record.Model
		undeclared bool
		ok         bool
		attempts   int // 0: not pinned
	}{
		{"bank", record.DebugRCSE, false, true, 1},
		{"disk-snapres", record.DebugRCSE, false, true, 3},
		{"disk-tornwal", record.DebugRCSE, true, true, 7},
		{"msgdrop", record.DebugRCSE, true, false, 8},
		{"sum", record.Output, false, true, 0},
		{"overflow", record.Failure, false, true, 0},
	}
	for _, tc := range cases {
		tc := tc
		name := tc.scenario + "/" + tc.model.String()
		if tc.undeclared {
			name += "/undeclared"
		}
		t.Run(name, func(t *testing.T) {
			var s *scenario.Scenario
			var rec *record.Recording
			if tc.model == record.DebugRCSE {
				s, rec = recordRCSE(t, tc.scenario, tc.undeclared)
			} else {
				s, rec, _ = recordScenario(t, tc.scenario, tc.model)
			}
			base := Replay(s, rec, Options{Budget: 120, Workers: 1})
			if base.Ok != tc.ok || (tc.attempts != 0 && base.Attempts != tc.attempts) {
				t.Fatalf("scratch replay: ok=%v attempts=%d, want ok=%v attempts=%d (%s)",
					base.Ok, base.Attempts, tc.ok, tc.attempts, base.Note)
			}
			if base.View == nil {
				t.Fatal("scratch replay returned no view")
			}
			for _, o := range []Options{
				{Budget: 120, Workers: 4},
				{Budget: 120, Workers: 1, Fork: true},
				{Budget: 120, Workers: 4, Fork: true},
			} {
				got := Replay(s, rec, o)
				if base.Ok != got.Ok || base.Attempts != got.Attempts || base.Note != got.Note {
					t.Fatalf("workers=%d fork=%v replay diverges: ok=%v attempts=%d note=%q vs ok=%v attempts=%d note=%q",
						o.Workers, o.Fork, got.Ok, got.Attempts, got.Note, base.Ok, base.Attempts, base.Note)
				}
				if got.View == nil || !trace.EventsEqual(base.View.Trace, got.View.Trace, false) {
					t.Fatalf("workers=%d fork=%v replay produced a different event sequence", o.Workers, o.Fork)
				}
				if !o.Fork && got.WorkSteps != base.WorkSteps {
					t.Fatalf("scratch replay at %d workers executed %d steps, at 1 worker %d",
						o.Workers, got.WorkSteps, base.WorkSteps)
				}
				if got.WorkSteps > base.WorkSteps {
					t.Fatalf("forked replay executed more steps (%d) than scratch (%d)",
						got.WorkSteps, base.WorkSteps)
				}
			}
		})
	}
}

// TestReplayValidatesOptions pins Options.Validate wiring: out-of-domain
// knobs surface as a clean error result from every model dispatch,
// before any candidate executes.
func TestReplayValidatesOptions(t *testing.T) {
	s, rec := recordRCSE(t, "bank", false)
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

// TestRCSEReplayReadsOnlyTheRecording pins that an RCSE replay takes what
// it forces from the recording alone: replaying each corpus scenario's
// recording against a copy of the scenario that declares no control
// stream gives the same Ok, Attempts, WorkSteps, Note and trace.
func TestRCSEReplayReadsOnlyTheRecording(t *testing.T) {
	for _, s := range workload.All() {
		s, rec := recordRCSE(t, s.Name, false)
		bare := *s
		bare.ControlStreams = nil
		o := Options{Budget: 120, Workers: 1}
		want, got := Replay(s, rec, o), Replay(&bare, rec, o)
		if want.Ok != got.Ok || want.Attempts != got.Attempts || want.WorkSteps != got.WorkSteps || want.Note != got.Note {
			t.Errorf("%s: declared ok=%v attempts=%d steps=%d note=%q; undeclared ok=%v attempts=%d steps=%d note=%q",
				s.Name, want.Ok, want.Attempts, want.WorkSteps, want.Note, got.Ok, got.Attempts, got.WorkSteps, got.Note)
			continue
		}
		if want.View == nil || got.View == nil || !trace.EventsEqual(want.View.Trace, got.View.Trace, false) {
			t.Errorf("%s: the undeclared replay produced a different event sequence", s.Name)
		}
	}
}

// Package replay reconstructs executions from recordings. Each determinism
// model records less than the one before and searches more at debug time
// (the paper's Fig. 1), so four of the five replayers are one loop,
// infer.Search, under different constraints (DESIGN.md §2). A replayer
// reads what it forces from the recording alone, never from the scenario:
//
//   - perfect and debug-rcse force the recorded schedule and every
//     recorded input, each stream's recorded inputs being a prefix of its
//     draws, and re-draw the rest. Perfect recorded every input: one
//     candidate, bit-identical to the original. RCSE recorded the control
//     plane's inputs: up to 8 candidates, on which control-plane
//     behaviour, and with it a control-plane failure and its root cause,
//     reproduces;
//   - output searches for the recorded outputs, possibly through other
//     inputs and interleavings (the paper's 2+2=5 hazard);
//   - failure searches for the recorded failure signature, shrunken
//     configurations first (ESD).
//
// Value replay alone has its own scheduler (valuesched.go), guided by the
// per-thread value logs to iDNA's guarantee: the same values at the same
// per-thread points, possibly in another global interleaving.
package replay

import (
	"context"
	"fmt"

	"debugdet/internal/infer"
	"debugdet/internal/record"
	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// Options configures a replay.
type Options struct {
	// Ctx cancels the replay between candidate executions (nil =
	// context.Background()); it is plumbed into the inference worker
	// pool of search-based models. A canceled replay has Ok=false and
	// Err set.
	Ctx context.Context
	// Budget bounds inference attempts for search-based models
	// (default 200; debug-rcse tries at most 8).
	Budget int
	// SearchSeed perturbs inference randomness.
	SearchSeed int64
	// ShrinkParams enables ESD-style shrinking for failure determinism.
	ShrinkParams []scenario.Params
	// MaxSteps bounds each candidate execution.
	MaxSteps uint64
	// Workers sets the inference worker-pool size for search-based
	// models (0 = GOMAXPROCS, 1 = sequential). Results are identical
	// for every worker count; see infer.Search.
	Workers int
	// Fork is ignored. bench/ compiles against it; ROADMAP item 1 deletes
	// it.
	Fork bool
}

// Validate rejects out-of-domain option values, delegating the knobs
// shared with the inference engine to infer.Options.Validate. Replay
// calls it and surfaces the error through Result.Err.
func (o Options) Validate() error {
	return infer.Options{Budget: o.Budget, Workers: o.Workers}.Validate()
}

// Result is a finished replay.
type Result struct {
	// View is the replayed execution. A replay that is not accepted keeps
	// its last candidate (the diverged or mismatched run) with Ok false.
	// View is nil for rejected options, a canceled replay and a recording
	// the model cannot replay.
	View *scenario.RunView
	// Ok reports whether the model's own acceptance condition was met
	// (schedule consumed, outputs matched, signature matched, ...).
	Ok bool
	// Attempts counts candidate executions (1 for deterministic
	// replayers).
	Attempts int
	// WorkCycles is total virtual time spent producing the replay,
	// across all attempts.
	WorkCycles uint64
	// WorkSteps is total events executed across all attempts: the
	// denominator of debugging efficiency (virtual time includes idle
	// waits that would unfairly favour replays that skip them).
	WorkSteps uint64
	// Note describes how the replay was obtained.
	Note string
	// Err is the context error when the replay was canceled, nil
	// otherwise.
	Err error
}

// Replay dispatches on the recording's model: value replay, or one
// infer.Search call with the model's row of constraints (see the package
// comment). Perfect replay runs at the recording's seed, so the replay's
// trace header equals the original's.
func Replay(s *scenario.Scenario, rec *record.Recording, o Options) *Result {
	if err := o.Validate(); err != nil {
		return &Result{Note: "invalid options", Err: err}
	}
	if o.Ctx == nil {
		o.Ctx = context.Background()
	}
	if o.Budget == 0 {
		o.Budget = 200
	}
	if err := o.Ctx.Err(); err != nil {
		return &Result{Note: "replay canceled", Err: err}
	}
	io := infer.Options{
		Ctx:      o.Ctx,
		Budget:   o.Budget,
		BaseSeed: o.SearchSeed,
		Params:   rec.Params,
		MaxSteps: o.MaxSteps,
		Workers:  o.Workers,
	}
	terminal := func(v *scenario.RunView) bool {
		return matchesTerminal(s, rec.Failed, rec.FailureSig, v)
	}
	switch rec.Model {
	case record.Perfect, record.DebugRCSE:
		io.Schedule, _ = rec.SchedFrom(0) // a Recording's SchedFrom never fails
		if n := uint64(len(io.Schedule)); n != rec.EventCount {
			return &Result{Note: fmt.Sprintf("%s recording schedules %d of the run's %d events", rec.Model, n, rec.EventCount)}
		}
		io.ForcedInputs = rec.InputsByStream()
		if rec.Model == record.Perfect {
			io.Budget, io.BaseSeed = 1, rec.Seed
			return search(s, terminal, io, "deterministic re-execution")
		}
		io.Budget = min(8, o.Budget)
		return search(s, terminal, io, "forced schedule + recorded inputs")
	case record.Output:
		io.Events = rec.EventCount
		want := rec.OutputsByStream()
		return search(s, func(v *scenario.RunView) bool {
			return outputsMatch(want, v)
		}, io, "output-constrained search")
	case record.Failure:
		if !rec.Failed {
			return &Result{Note: "original run did not fail; nothing to synthesize"}
		}
		io.ShrinkParams, io.Events = o.ShrinkParams, rec.EventCount
		return search(s, func(v *scenario.RunView) bool {
			failed, sig := s.CheckFailure(v)
			return failed && sig == rec.FailureSig
		}, io, "failure-signature search")
	case record.Value:
		return replayValue(s, rec, o)
	}
	return &Result{Note: fmt.Sprintf("unknown model %v", rec.Model)}
}

// search runs one search-shaped replay and reports it under note.
func search(s *scenario.Scenario, accept func(*scenario.RunView) bool, io infer.Options, note string) *Result {
	out := infer.Search(s, accept, io)
	return &Result{
		View:       out.View,
		Ok:         out.Ok,
		Attempts:   out.Attempts,
		WorkCycles: out.WorkCycles,
		WorkSteps:  out.WorkSteps,
		Note:       note + ": " + out.Note,
		Err:        out.Err,
	}
}

// matchesTerminal checks that the replay did not diverge from its forced
// schedule and that its failure identity matches the recorded one (a
// Recording's fields or a store's Meta): both failed with the same
// signature, or both finished clean.
func matchesTerminal(s *scenario.Scenario, failed bool, sig string, v *scenario.RunView) bool {
	gotFailed, gotSig := s.CheckFailure(v)
	return v.Result.Outcome != vm.OutcomeDiverged && gotFailed == failed && gotSig == sig
}

// outputsMatch compares per-stream output sequences, resolving the
// recording's stream names against the replay machine.
func outputsMatch(want map[string][]trace.Value, v *scenario.RunView) bool {
	got := v.Result.Outputs
	if len(got) != len(want) {
		return false
	}
	//lint:nondet-ok pure all-keys conjunction: the result is the same whichever key fails first
	for name, ws := range want {
		gs, ok := got[name]
		if !ok || len(gs) != len(ws) {
			return false
		}
		for i := range ws {
			if !ws[i].Equal(gs[i]) {
				return false
			}
		}
	}
	return true
}

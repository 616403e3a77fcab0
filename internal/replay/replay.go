// Package replay reconstructs executions from recordings, one replayer per
// determinism model:
//
//   - perfect: force the recorded schedule and recorded inputs; the replay
//     is bit-identical to the original in one attempt;
//   - value: greedy value-guided scheduling against the per-thread value
//     logs (the replay reads and writes the same values at the same
//     per-thread execution points, but may discover a different global
//     interleaving — exactly iDNA's guarantee);
//   - output: search (see the infer package) until some execution produces
//     the recorded outputs — it may reach them through different inputs
//     and interleavings, which is the paper's 2+2=5 hazard;
//   - failure: search until some execution exhibits the recorded failure
//     signature, trying shrunken configurations first (ESD);
//   - debug-rcse: force the recorded thread schedule and control-plane
//     inputs; re-draw unrecorded data-plane inputs from the search domain.
//     Control-plane behaviour — and with it the failure and its root cause,
//     when they live in the control plane — reproduces exactly.
package replay

import (
	"context"
	"fmt"

	"debugdet/internal/infer"
	"debugdet/internal/lint/sites"
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
	// (default 200).
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
	// Suspects are statically implicated lock-order inversions (from
	// detlint's lockorder analysis via sites.Triage); failure-determinism
	// search uses them to visit its PCT candidates first. See
	// infer.Options.Suspects for the bit-identity contract.
	Suspects []sites.Suspect
	// Fork enables equivalence-pruned candidate execution for every
	// search-shaped model (output, failure, debug-rcse): a candidate
	// equivalent to an earlier one is pruned to zero executed work.
	// Acceptance, Attempts and the replayed view are bit-identical to the
	// unpruned replay; only WorkCycles/WorkSteps shrink. See
	// infer.Options.Fork.
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
	// View is the replayed execution (nil if replay failed entirely).
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

// Replay dispatches on the recording's model.
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
	switch rec.Model {
	case record.Perfect:
		return replayPerfect(s, rec, o)
	case record.Value:
		return replayValue(s, rec, o)
	case record.Output:
		return replayOutput(s, rec, o)
	case record.Failure:
		return replayFailure(s, rec, o)
	case record.DebugRCSE:
		return replayRCSE(s, rec, o)
	}
	return &Result{Note: fmt.Sprintf("unknown model %v", rec.Model)}
}

// replayPerfect forces the complete schedule and the recorded inputs.
func replayPerfect(s *scenario.Scenario, rec *record.Recording, o Options) *Result {
	if !rec.SchedComplete {
		return &Result{Note: "perfect recording lacks a complete schedule"}
	}
	// The error is the store contract's: a recording serves its schedule
	// and inputs from memory and cannot fail.
	eo, _ := replayExec(rec, rec.Meta(), o, 0)
	view := s.Exec(eo)
	ok := view.Result.Outcome != vm.OutcomeDiverged && matchesTerminal(s, rec.Failed, rec.FailureSig, view)
	return &Result{
		View:       view,
		Ok:         ok,
		Attempts:   1,
		WorkCycles: view.Result.Cycles,
		WorkSteps:  view.Result.Steps,
		Note:       "deterministic re-execution",
	}
}

// replayRCSE forces the schedule stream and the recorded control-plane
// inputs, re-drawing data-plane inputs from the search domain. A handful
// of data-input seeds are tried in case unrecorded values steer control
// flow (they do not in well-separated programs; the attempts guard
// pathological scenarios).
func replayRCSE(s *scenario.Scenario, rec *record.Recording, o Options) *Result {
	if !rec.SchedComplete {
		return &Result{Note: "rcse recording lacks a complete schedule"}
	}
	// Only the declared control streams are forced: the policy records
	// them completely, so their (stream, index) alignment is exact.
	// Trigger dial-ups may additionally capture fragments of data
	// streams, but those fragments have unknown stream offsets and are
	// used for inspection, not forcing.
	control := make(map[string]bool, len(s.ControlStreams))
	for _, name := range s.ControlStreams {
		control[name] = true
	}
	forced := rec.InputsByStream()
	//lint:nondet-ok per-key filter: each delete depends only on its own key, never on visit order
	for name := range forced {
		if !control[name] {
			delete(forced, name)
		}
	}
	res := &Result{Note: "forced schedule + control inputs"}
	tries := 8
	if o.Budget < tries {
		tries = o.Budget
	}
	// The tries share the complete forced schedule and all control-plane
	// inputs, so they diverge only at data-plane draws — often not at all.
	// With Fork, a try that draws the same values as an earlier one is
	// pruned to zero work; without it the forker's forest stays empty.
	forker := infer.NewForker(infer.ForkerConfig{Scenario: s, MaxSteps: o.MaxSteps, RelaxTime: true})
	if !o.Fork {
		forker.Freeze()
	}
	for i := 0; i < tries; i++ {
		if err := o.Ctx.Err(); err != nil {
			res.Err = err
			res.Note = "replay canceled"
			return res
		}
		if res.View != nil {
			// The failed try's trace array backs this one; a canceled
			// replay returns before, keeping the last try as its view.
			forker.Discard(res.View)
		}
		searchSeed := o.SearchSeed + int64(i)
		view, steps, cycles := forker.Run(infer.Candidate{
			Seed:      rec.Seed,
			Scheduler: func() vm.Scheduler { return vm.NewReplayScheduler(rec.Sched) },
			Inputs: func() vm.InputSource {
				return &vm.MapInputs{
					Values: forced,
					Base:   s.SearchSource(searchSeed, s.DefaultParams.Clone(rec.Params)),
				}
			},
			Params: rec.Params,
		})
		res.Attempts++
		res.WorkCycles += cycles
		res.WorkSteps += steps
		res.View = view
		if view.Result.Outcome != vm.OutcomeDiverged && matchesTerminal(s, rec.Failed, rec.FailureSig, view) {
			res.Ok = true
			return res
		}
	}
	return res
}

// replayOutput searches for an execution producing the recorded outputs.
func replayOutput(s *scenario.Scenario, rec *record.Recording, o Options) *Result {
	want := rec.OutputsByStream()
	out := infer.Search(s, func(v *scenario.RunView) bool {
		return outputsMatch(want, v)
	}, infer.Options{
		Ctx:      o.Ctx,
		Budget:   o.Budget,
		BaseSeed: o.SearchSeed,
		Params:   rec.Params,
		MaxSteps: o.MaxSteps,
		Workers:  o.Workers,
		Fork:     o.Fork,
	})
	return &Result{
		View:       out.View,
		Ok:         out.Ok,
		Attempts:   out.Attempts,
		WorkCycles: out.WorkCycles,
		WorkSteps:  out.WorkSteps,
		Note:       "output-constrained search: " + out.Note,
		Err:        out.Err,
	}
}

// replayFailure searches for an execution with the recorded failure
// signature, shrunken configurations first.
func replayFailure(s *scenario.Scenario, rec *record.Recording, o Options) *Result {
	if !rec.Failed {
		return &Result{Note: "original run did not fail; nothing to synthesize"}
	}
	out := infer.Search(s, func(v *scenario.RunView) bool {
		failed, sig := s.CheckFailure(v)
		return failed && sig == rec.FailureSig
	}, infer.Options{
		Ctx:          o.Ctx,
		Budget:       o.Budget,
		BaseSeed:     o.SearchSeed,
		Params:       rec.Params,
		ShrinkParams: o.ShrinkParams,
		MaxSteps:     o.MaxSteps,
		Workers:      o.Workers,
		Suspects:     o.Suspects,
		Fork:         o.Fork,
	})
	return &Result{
		View:       out.View,
		Ok:         out.Ok,
		Attempts:   out.Attempts,
		WorkCycles: out.WorkCycles,
		WorkSteps:  out.WorkSteps,
		Note:       "failure-signature search: " + out.Note,
		Err:        out.Err,
	}
}

// matchesTerminal checks that the replay's failure identity matches the
// recorded one (a Recording's fields or a store's Meta): both failed with
// the same signature, or both finished clean.
func matchesTerminal(s *scenario.Scenario, failed bool, sig string, v *scenario.RunView) bool {
	gotFailed, gotSig := s.CheckFailure(v)
	return gotFailed == failed && gotSig == sig
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

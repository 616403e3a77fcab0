// Package infer implements the execution-synthesis engine behind the
// relaxed determinism models: it reconstructs the non-determinism a
// recorder chose not to persist.
//
// Output determinism (ODR) and failure determinism (ESD) both defer work
// from production to debug time: the replayer must find *some* execution
// consistent with what little was recorded — the same outputs, or just the
// same failure signature. This package realizes that inference as guided
// search over re-executions of the program on the deterministic VM:
//
//   - scheduling non-determinism is searched by enumerating scheduler
//     seeds, alternating uniform-random with PCT (priority-based) search,
//     which reaches rare interleavings with known probability;
//   - input non-determinism is searched by drawing candidate input
//     sequences from the scenario's declared input domains;
//   - recorded fragments (forced inputs, forced schedules) constrain each
//     candidate execution rather than being searched — which is how
//     perfect and RCSE replay run through this same loop;
//   - ESD-style shrinking tries the scenario's reduced parameter sets
//     first, synthesizing executions shorter than the original — which is
//     how debugging efficiency can exceed 1 (§3.2).
//
// The search accounts its total work in virtual cycles across every
// attempted execution; that is the "analysis time" component of debugging
// efficiency.
package infer

import (
	"context"
	"fmt"

	"debugdet/internal/par"
	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// Options configures a search.
type Options struct {
	// Ctx cancels the search between candidate executions (nil =
	// context.Background()). A canceled search returns Ok=false with
	// Err set; candidates already accounted stay accounted, so the
	// Outcome of an uncanceled search is unaffected by the field.
	Ctx context.Context
	// Budget is the maximum number of candidate executions (default 200).
	Budget int
	// BaseSeed perturbs the search's own randomness so independent
	// searches explore differently.
	BaseSeed int64
	// Params are the execution parameters (scenario defaults if nil).
	Params scenario.Params
	// ShrinkParams are smaller parameter sets to try first, in order:
	// the ESD-style execution synthesis that can find a shorter
	// execution exhibiting the same failure.
	ShrinkParams []scenario.Params
	// ForcedInputs pins recorded streams: the replay draws these values
	// by (stream, index) and only searches the rest.
	ForcedInputs map[string][]trace.Value
	// Schedule, when non-nil, is a complete recorded schedule to force;
	// only input non-determinism is searched. A forced schedule implies
	// forced-schedule replay's relaxed time gates (vm.Config.RelaxTime),
	// and candidate i draws its unforced inputs from
	// Scenario.SearchSource(BaseSeed+i): no scheduler seed is drawn, so
	// there is nothing to decorrelate the input seed from.
	Schedule []trace.ThreadID
	// MaxSteps bounds each candidate execution (0 = VM default).
	MaxSteps uint64
	// Events is the length of the run a replay searches for, as its
	// recording's header states it (0 = unknown): a candidate that finds
	// no discarded trace array to build into starts one at that length,
	// clamped (trace.Presize), rather than at the VM's default.
	Events uint64
	// Workers is the number of candidate executions run concurrently
	// (default GOMAXPROCS; 1 opts out of parallelism; negative is rejected
	// by Validate). Candidates are bit-deterministic functions of their
	// index, so the Outcome — accepted execution, Attempts, WorkCycles,
	// WorkSteps, Note — is identical for every worker count; see Search
	// for the contract.
	Workers int
	// Fork is ignored. bench/ compiles against it; ROADMAP item 1 deletes
	// it.
	Fork bool
}

// Validate rejects option values outside their domain instead of silently
// reinterpreting them, mirroring flightrec.Options.Validate. A negative
// Workers previously fell through to the sequential path as if it were 1,
// hiding the caller's sign bug. Search calls Validate and surfaces the
// error through Outcome.Err.
func (o Options) Validate() error {
	if o.Workers < 0 {
		return fmt.Errorf("infer: Workers must be >= 0 (0 = GOMAXPROCS, 1 = sequential), got %d", o.Workers)
	}
	if o.Budget < 0 {
		return fmt.Errorf("infer: Budget must be >= 0 (0 = default 200), got %d", o.Budget)
	}
	return nil
}

// Outcome is a finished search.
type Outcome struct {
	// View is the accepted execution. When the budget runs out it is the
	// last candidate's execution, with Ok false, so a caller can show how
	// the search failed; it is nil for rejected options and a canceled
	// search.
	View *scenario.RunView
	// Ok reports whether a consistent execution was found.
	Ok bool
	// Attempts is the number of candidate executions run.
	Attempts int
	// WorkCycles is the total virtual time across every attempt,
	// including the accepted one: the tool's analysis cost.
	WorkCycles uint64
	// WorkSteps is the total event count across every attempt — the
	// idle-time-free duration proxy debugging efficiency uses.
	WorkSteps uint64
	// AcceptedParams are the parameters of the accepted execution (they
	// differ from the original's when shrinking succeeded).
	AcceptedParams scenario.Params
	// Note summarizes how the result was found, for reports.
	Note string
	// Err is the context error when the search was canceled mid-flight or
	// the validation error when the options were rejected, nil otherwise.
	Err error
}

// Search runs candidate executions of s until accept returns true or the
// budget is exhausted, under the worker contract (DESIGN.md §0): candidates
// keep their plan indices, accept is invoked on the caller's goroutine in
// strictly increasing index order (so it needs no internal locking), the
// accepted candidate is the lowest-index accepted one, and
// Attempts/WorkCycles/WorkSteps count exactly the candidates at or before
// it. Candidates executed speculatively beyond the accepted index are
// discarded unobserved.
//
// A rejected candidate's machine, trace array and stream histories back a
// later candidate's run (see runner.Discard), so accept must not retain a
// view it rejects, nor its trace, nor its Result's Outputs and InputsUsed;
// the accepted view, or the last one when the budget runs out, is the
// caller's to keep. The candidates' threads share the search's thread
// coroutines, which end when Search returns.
func Search(s *scenario.Scenario, accept func(*scenario.RunView) bool, o Options) *Outcome {
	if err := o.Validate(); err != nil {
		return &Outcome{Err: err, Note: "invalid options"}
	}
	if o.Ctx == nil {
		o.Ctx = context.Background()
	}
	if o.Budget == 0 {
		o.Budget = 200
	}
	pl := newPlan(s, o)

	r := &runner{s: s, events: o.Events, maxSteps: o.MaxSteps}
	// par.Ordered has stopped its workers before Search returns, so every
	// machine is finished and every host idle.
	defer r.hosts.Close()
	out := &Outcome{}
	for i, v := range par.Ordered(o.Ctx, o.Budget, o.Workers, func(_ context.Context, i int) *scenario.RunView {
		return r.Run(pl.candidate(i))
	}) {
		out.Attempts++
		out.WorkCycles += v.Result.Cycles
		out.WorkSteps += v.Result.Steps
		if accept(v) {
			p, shrunk := pl.params(i)
			out.View = v
			out.Ok = true
			out.AcceptedParams = p
			out.Note = fmt.Sprintf("full attempt %d", i)
			if shrunk >= 0 {
				out.Note = fmt.Sprintf("shrink[%d] attempt %d", shrunk, i)
			}
			return out
		}
		if i == o.Budget-1 {
			out.View = v
		} else {
			r.Discard(v)
		}
	}
	if out.Attempts < o.Budget {
		out.Err = o.Ctx.Err()
		out.Note = "search canceled"
		return out
	}
	out.Note = "budget exhausted"
	return out
}

// plan describes a search's candidates: the parameter schedule (each
// ShrinkParams entry for perShrink candidates, at least 4, then the full
// configuration for the rest of the budget) and the input sources.
// Candidates are bit-deterministic functions of (scenario, options,
// index), computed from the index when a worker runs one, which is what
// makes the search embarrassingly parallel.
type plan struct {
	o         Options
	perShrink int
	full      scenario.Params
	sources   func(searchSeed int64) vm.InputSource
}

func newPlan(s *scenario.Scenario, o Options) *plan {
	return &plan{
		o:         o,
		perShrink: max(o.Budget/8, 4),
		full:      s.DefaultParams.Clone(o.Params),
		sources:   scenario.SearchSources(s),
	}
}

// params returns the i-th candidate's parameters and the index of the
// ShrinkParams entry they are, or -1 for the full configuration.
func (pl *plan) params(i int) (scenario.Params, int) {
	if k := i / pl.perShrink; k < len(pl.o.ShrinkParams) {
		return pl.o.ShrinkParams[k], k
	}
	return pl.full, -1
}

// candidate describes the i-th candidate.
func (pl *plan) candidate(i int) scenario.ExecOptions {
	p, _ := pl.params(i)
	return scenario.ExecOptions{
		Seed:      pl.o.BaseSeed + int64(i),
		Params:    p,
		Scheduler: candidateScheduler(pl.o, int64(i)),
		Inputs:    pl.inputs(int64(i)),
		MaxSteps:  pl.o.MaxSteps,
		RelaxTime: pl.o.Schedule != nil,
	}
}

// candidateScheduler picks the i-th candidate's scheduler: the forced
// schedule when one is recorded, otherwise alternating random and PCT
// search.
func candidateScheduler(o Options, i int64) vm.Scheduler {
	if o.Schedule != nil {
		return vm.NewReplayScheduler(o.Schedule)
	}
	seed := mix(o.BaseSeed, i)
	// Every third candidate runs PCT, to reach low-probability orderings
	// that uniform random sampling misses.
	if i%3 == 2 {
		return vm.NewPCTScheduler(seed, 4096, 3)
	}
	return vm.NewRandomScheduler(seed)
}

// inputs builds the i-th candidate's input source: forced recorded
// streams over a searched base (see Options.Schedule for the base's seed
// under a forced schedule).
func (pl *plan) inputs(i int64) vm.InputSource {
	o := pl.o
	seed := mix(o.BaseSeed, i*7919+13)
	if o.Schedule != nil {
		seed = o.BaseSeed + i
	}
	base := pl.sources(seed)
	if len(o.ForcedInputs) == 0 {
		return base
	}
	return &vm.MapInputs{Values: o.ForcedInputs, Base: base}
}

// mix combines two seeds into one (splitmix-style).
func mix(a, b int64) int64 {
	h := uint64(a)*0x9e3779b97f4a7c15 ^ uint64(b)*0xbf58476d1ce4e5b9
	h ^= h >> 31
	return int64(h &^ (1 << 63))
}

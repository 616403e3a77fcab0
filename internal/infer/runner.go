package infer

import (
	"sync"

	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// runner executes a search's candidates, each from scratch. Search owns one
// per call and is its only user, so every candidate loop in the module is
// Search's.
//
// A candidate's machine, trace array, site table, scheduler generator,
// stream histories and result maps are allocated once per concurrent run,
// not once per candidate: Discard hands a rejected view back to the spare
// list, and the next Run builds into it (see scenario.ExecInto and
// vm.Recycle), reseeding the spare machine's generator for its own
// scheduler and appending its inputs and outputs into the spare's
// arrays. A Run that finds no spare, a worker's first, starts its trace
// array at the searched run's recorded length (Options.Events, clamped by
// trace.Presize), or at the VM's default when that is unknown. Every candidate's threads run on the
// coroutines of hosts, which finished candidates' threads have left idle;
// Search closes the pool when it returns. Nothing outlives the Search. Run
// and Discard are safe for concurrent use.
type runner struct {
	s                *scenario.Scenario
	hosts            vm.Hosts
	events, maxSteps uint64

	mu    sync.Mutex
	spare []*scenario.RunView
}

// Run executes one candidate, built into a discarded view when one is
// spare.
func (r *runner) Run(o scenario.ExecOptions) *scenario.RunView {
	spare := r.takeSpare()
	if spare == nil && r.events > 0 {
		spare = &scenario.RunView{Trace: &trace.Log{Events: trace.Presize(r.events, r.maxSteps)}}
	}
	return scenario.ExecInto(r.s, o, spare, &r.hosts)
}

// Discard declares a view Run returned dead: the caller (a search that
// rejected the candidate) keeps no reference to it, its machine, its trace
// or its Result's Outputs and InputsUsed. The view's machine, with its
// site table, scheduler, stream histories and result maps, and its trace
// array go back to the spare list for the next Run, the array cleared so
// it pins nothing the events pointed to. The view's Machine, Trace.Events,
// Trace.Sites, Result.Outputs and Result.InputsUsed are nil afterwards, so
// a caller that breaks the contract reads nothing rather than a later
// candidate's run.
func (r *runner) Discard(v *scenario.RunView) {
	if v.Machine == nil {
		return
	}
	events := v.Trace.Events
	clear(events)
	dead := &scenario.RunView{Machine: v.Machine, Trace: &trace.Log{Events: events[:0]}}
	v.Machine, v.Trace.Events, v.Trace.Sites = nil, nil, nil
	v.Result.Outputs, v.Result.InputsUsed = nil, nil
	r.mu.Lock()
	r.spare = append(r.spare, dead)
	r.mu.Unlock()
}

// takeSpare returns a discarded view to build the next run into, or nil
// when none is spare.
func (r *runner) takeSpare() (v *scenario.RunView) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.spare); n > 0 {
		v, r.spare = r.spare[n-1], r.spare[:n-1]
	}
	return v
}

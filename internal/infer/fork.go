package infer

import (
	"sync"

	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// This file implements equivalence-pruned candidate execution. The search
// over schedule and input non-determinism re-executes the same program
// hundreds of times, and many candidates are the same execution under
// another name: a random scheduler facing a singleton enabled set has no
// choice, a forced schedule pins every decision, forced input streams pin
// every draw. A from-scratch search pays for each of them in full.
//
// The forker removes that cost without changing a single answer. It
// retains a bounded forest of fully-executed candidates, each with its
// scheduling-round log (vm.SchedRound) and finished view. A new candidate
// is first *dry-run* against each retained execution: its scheduler is
// simulated over the recorded rounds (vm.SchedSim) and its input source
// probed at each recorded input draw. The VM funnels every scheduling
// decision through one round and every environment read through one input
// draw, so a candidate that agrees on all of them is bit-identical to the
// retained execution and is pruned outright — sleep-set-style reduction:
// an interleaving equivalent to one already explored costs zero executed
// work, and its finished view is shared. Any other candidate executes from
// scratch, so a candidate executes either nothing or everything.
type forkPath struct {
	// params are the effective build parameters (scenario defaults with
	// the candidate's overrides applied); only candidates with equal
	// effective parameters may be pruned against this path.
	params scenario.Params
	// rounds is the execution's scheduling-round log, one round per event.
	rounds []vm.SchedRound
	// streams maps stream object IDs to names, for probing input sources.
	streams []string
	// view is the finished execution, shared with pruned candidates; its
	// trace is the full event stream (Events[i].Seq == i).
	view *scenario.RunView
}

// ForkerConfig configures a Forker. Every candidate run through one
// Forker shares these bounds: two candidates can only be equivalent if
// the run around them is configured the same way.
type ForkerConfig struct {
	// Scenario is the program under search.
	Scenario *scenario.Scenario
	// MaxSteps bounds each candidate execution (0 = VM default).
	MaxSteps uint64
	// RelaxTime lifts time gates on sleeps and timeouts, as forced-schedule
	// replay requires (see vm.Config.RelaxTime).
	RelaxTime bool
}

// maxForkPaths bounds the forest: how many finished executions a Forker
// retains to prune later candidates against.
const maxForkPaths = 8

// Forker runs candidate executions, pruning each one that is equivalent
// to a retained execution; see the comment on forkPath for the mechanism.
// Its contract is bit-equivalence: Run's view is identical — same events,
// same outcome, same outputs — to what a from-scratch execution of the
// candidate would produce, while the returned work counts only what was
// actually executed.
//
// A Forker is not safe for concurrent use while the forest grows; call
// Freeze first, after which concurrent Runs share the forest read-only. A
// Forker frozen before its first Run never prunes: it is the from-scratch
// runner.
//
// A candidate's trace array is allocated once per concurrent run, not once
// per candidate: Discard hands a rejected view's array back to the spare
// list, and the next Run appends its trace into it.
type Forker struct {
	cfg    ForkerConfig
	grow   bool
	forest []*forkPath

	mu    sync.Mutex
	spare [][]trace.Event
}

// NewForker returns a forker with an empty forest.
func NewForker(cfg ForkerConfig) *Forker { return &Forker{cfg: cfg, grow: true} }

// Candidate is one candidate execution, described by constructors rather
// than instances: the forker dry-runs a candidate's scheduler and probes
// its input source several times (once per retained path, once more for
// the real run), and each use needs a fresh copy in its initial state.
// Both constructors must build the same deterministic scheduler and input
// source every call — exactly the property that makes candidates
// reproducible from their index in the first place.
type Candidate struct {
	// Seed is the VM seed (trace-header identity; candidates always carry
	// explicit schedulers and inputs, so it steers nothing else).
	Seed int64
	// Scheduler constructs the candidate's scheduler, fresh each call.
	Scheduler func() vm.Scheduler
	// Inputs constructs the candidate's input source, fresh each call.
	Inputs func() vm.InputSource
	// Params are the candidate's parameter overrides (nil keeps the
	// scenario defaults), as scenario.ExecOptions.Params.
	Params scenario.Params
}

// Freeze stops forest growth. After Freeze, concurrent Run calls are safe:
// the forest is shared read-only and all remaining state is per-call.
func (f *Forker) Freeze() { f.grow = false }

// Run executes one candidate. A candidate equivalent to a retained
// execution is pruned: its view is the retained one relabeled with the
// candidate's seed, at zero steps and cycles. Any other candidate runs
// from scratch and reports whole-run totals. Either way the view is
// bit-identical to a from-scratch execution of the candidate.
func (f *Forker) Run(c Candidate) (view *scenario.RunView, steps, cycles uint64) {
	pEff := f.cfg.Scenario.DefaultParams.Clone(c.Params)
	if p := f.agrees(c, pEff); p != nil {
		return reuseView(p, c.Seed), 0, 0
	}
	insert := f.grow && len(f.forest) < maxForkPaths
	view = scenario.ExecInto(f.cfg.Scenario, scenario.ExecOptions{
		Seed:      c.Seed,
		Params:    c.Params,
		Scheduler: c.Scheduler(),
		Inputs:    c.Inputs(),
		MaxSteps:  f.cfg.MaxSteps,
		RelaxTime: f.cfg.RelaxTime,
		LogRounds: insert,
	}, f.takeSpare())
	if insert {
		f.forest = append(f.forest, &forkPath{
			params:  pEff,
			rounds:  view.Machine.Rounds(),
			streams: view.Machine.StreamNames(),
			view:    view,
		})
	}
	return view, view.Result.Steps, view.Result.Cycles
}

// Discard declares a view Run returned dead: the caller (a search that
// rejected the candidate) keeps no reference to it or its trace. The
// view's trace array goes back to the spare list for the next Run, cleared
// so it pins nothing the events pointed to, unless the forest shares it —
// a retained path's own view and every view pruned against it read the
// path's events. The view's Trace.Events is nil afterwards, so a caller
// that breaks the contract reads nothing rather than a later candidate's
// events.
func (f *Forker) Discard(v *scenario.RunView) {
	events := v.Trace.Events
	if cap(events) == 0 {
		return
	}
	for _, p := range f.forest {
		if sameArray(p.view.Trace.Events, events) {
			if v.Trace != p.view.Trace {
				v.Trace.Events = nil
			}
			return
		}
	}
	clear(events)
	v.Trace.Events = nil
	f.mu.Lock()
	f.spare = append(f.spare, events[:0])
	f.mu.Unlock()
}

// takeSpare returns a discarded trace array, or nil when none is spare.
func (f *Forker) takeSpare() (events []trace.Event) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := len(f.spare); n > 0 {
		events, f.spare = f.spare[n-1], f.spare[:n-1]
	}
	return events
}

// sameArray reports whether two event slices start at the same element of
// one backing array.
func sameArray(a, b []trace.Event) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
}

// agrees returns the oldest retained path with the candidate's effective
// parameters that the candidate agrees with over the whole run, or nil.
func (f *Forker) agrees(c Candidate, pEff scenario.Params) *forkPath {
	var sim *vm.SchedSim
	for _, p := range f.forest {
		if !paramsEqual(p.params, pEff) {
			continue
		}
		if sim == nil {
			sim = vm.NewSchedSim()
		}
		if p.agrees(sim, c) {
			return p
		}
	}
	return nil
}

// agrees walks the path's recorded rounds, dry-running a fresh copy of the
// candidate's scheduler and probing a fresh copy of its input source, and
// reports whether the candidate takes every decision and draws every
// input value the path did. A path that ended in replay divergence never
// agrees: its final, failed scheduler consultation is not in the round
// log and must be re-taken live.
func (p *forkPath) agrees(sim *vm.SchedSim, c Candidate) bool {
	sched := c.Scheduler()
	inputs := c.Inputs()
	events := p.view.Trace.Events
	counts := make([]int, len(p.streams))
	for _, r := range p.rounds {
		if r.Seq >= uint64(len(events)) {
			return false
		}
		pick, ok := sim.Pick(sched, r.Seq, r.Enabled)
		if !ok || pick != r.Pick {
			return false
		}
		e := &events[r.Seq]
		if e.Kind == trace.EvInput {
			idx := counts[e.Obj]
			counts[e.Obj]++
			if !inputs.Next(p.streams[e.Obj], idx).Equal(e.Val) {
				return false
			}
		}
	}
	return p.view.Result.Outcome != vm.OutcomeDiverged
}

// reuseView shares a retained execution with a pruned candidate: the
// machine, result and events are the path's own (read-only by the
// RunView contract); only the trace header's seed is the candidate's.
func reuseView(p *forkPath, seed int64) *scenario.RunView {
	res := *p.view.Result
	tr := &trace.Log{Header: p.view.Trace.Header, Sites: p.view.Trace.Sites, Events: p.view.Trace.Events}
	tr.Header.Seed = seed
	res.Trace = tr
	return &scenario.RunView{Machine: p.view.Machine, Result: &res, Trace: tr}
}

// paramsEqual reports whether two effective parameter sets are identical.
func paramsEqual(a, b scenario.Params) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

package infer

import (
	"slices"
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
// is first *dry-run* against the retained executions, all of them in one
// pass: its scheduler is simulated over the recorded rounds (vm.SchedSim)
// and its input source probed at each recorded input draw. The VM funnels
// every scheduling decision through one round and every environment read
// through one input draw, so a candidate that agrees on all of them is
// bit-identical to the retained execution and is pruned outright —
// sleep-set-style reduction: an interleaving equivalent to one already
// explored costs zero executed work, and its finished view is shared. Any
// other candidate executes from scratch, so a candidate executes either
// nothing or everything.
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

// forkerConfig configures a forker. Every candidate run through one
// forker shares these bounds: two candidates can only be equivalent if
// the run around them is configured the same way.
type forkerConfig struct {
	// Scenario is the program under search.
	Scenario *scenario.Scenario
	// MaxSteps bounds each candidate execution (0 = VM default).
	MaxSteps uint64
	// RelaxTime lifts time gates on sleeps and timeouts, as forced-schedule
	// replay requires (see vm.Config.RelaxTime).
	RelaxTime bool
}

// maxForkPaths bounds the forest: how many finished executions a forker
// retains to prune later candidates against.
const maxForkPaths = 8

// forker runs candidate executions, pruning each one that is equivalent
// to a retained execution; see the comment on forkPath for the mechanism.
// Search owns one per call and is its only user, so every candidate loop
// in the module is Search's.
// Its contract is bit-equivalence: Run's view is identical — same events,
// same outcome, same outputs — to what a from-scratch execution of the
// candidate would produce, while the returned work counts only what was
// actually executed.
//
// A forker is not safe for concurrent use while the forest grows; call
// Freeze first, after which concurrent Runs share the forest read-only. A
// forker frozen before its first Run never prunes: it is the from-scratch
// runner.
//
// A candidate's machine and trace array are allocated once per concurrent
// run, not once per candidate: Discard hands a rejected view's machine and
// array back to the spare list, and the next Run builds into them (see
// scenario.ExecInto). Dry runs likewise share one pooled simulator per
// concurrent run.
type forker struct {
	cfg    forkerConfig
	grow   bool
	forest []*forkPath

	mu    sync.Mutex
	spare []*scenario.RunView
	dry   []*dryRun
}

// dryRun is the scratch state of one dry run: the scheduler simulator and
// the per-stream input draw counts.
type dryRun struct {
	sim    *vm.SchedSim
	counts []int
}

// newForker returns a forker with an empty forest.
func newForker(cfg forkerConfig) *forker { return &forker{cfg: cfg, grow: true} }

// candidate is one candidate execution, described by constructors rather
// than instances: the forker dry-runs a candidate's scheduler and probes
// its input source once against the whole forest, then once more for the
// real run, and each use needs a fresh copy in its initial state.
// Both constructors must build the same deterministic scheduler and input
// source every call — exactly the property that makes candidates
// reproducible from their index in the first place.
type candidate struct {
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
func (f *forker) Freeze() { f.grow = false }

// Run executes one candidate. A candidate equivalent to a retained
// execution is pruned: its view is the retained one relabeled with the
// candidate's seed, at zero steps and cycles. Any other candidate runs
// from scratch and reports whole-run totals. Either way the view is
// bit-identical to a from-scratch execution of the candidate.
func (f *forker) Run(c candidate) (view *scenario.RunView, steps, cycles uint64) {
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
// rejected the candidate) keeps no reference to it, its machine or its
// trace. The view's machine and trace array go back to the spare list for
// the next Run, the array cleared so it pins nothing the events pointed
// to, unless the forest shares them — a retained path's own view and
// every view pruned against it read the path's machine and events. The
// view's Machine and Trace.Events are nil afterwards (a retained path's
// own view excepted), so a caller that breaks the contract reads nothing
// rather than a later candidate's run.
func (f *forker) Discard(v *scenario.RunView) {
	if v.Machine == nil {
		return
	}
	for _, p := range f.forest {
		if v.Machine == p.view.Machine {
			if v != p.view {
				v.Machine, v.Trace.Events = nil, nil
			}
			return
		}
	}
	events := v.Trace.Events
	clear(events)
	dead := &scenario.RunView{Machine: v.Machine, Trace: &trace.Log{Events: events[:0]}}
	v.Machine, v.Trace.Events = nil, nil
	f.mu.Lock()
	f.spare = append(f.spare, dead)
	f.mu.Unlock()
}

// takeSpare returns a discarded view to build the next run into, or nil
// when none is spare.
func (f *forker) takeSpare() (v *scenario.RunView) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := len(f.spare); n > 0 {
		v, f.spare = f.spare[n-1], f.spare[:n-1]
	}
	return v
}

// agrees returns the oldest retained path with the candidate's effective
// parameters that the candidate agrees with over the whole run, or nil.
//
// One dry run serves the whole forest: paths that agree with the candidate
// up to round j are the same execution up to j, so they present the same
// rounds and draws, and one scheduler and one input source walk them in
// lockstep. Paths drop out of the live set as they disagree; a path that
// is out of step with the lead (another sequence number, enabled set or
// draw at the same round) drops out too, so an answer never rests on the
// lockstep assumption — at worst the candidate executes from scratch.
func (f *forker) agrees(c candidate, pEff scenario.Params) *forkPath {
	var buf [maxForkPaths]*forkPath
	live, streams := buf[:0], 0
	for _, p := range f.forest {
		// A path that ended in replay divergence never agrees: its final,
		// failed scheduler consultation is not in the round log and must
		// be re-taken live.
		if paramsEqual(p.params, pEff) && p.view.Result.Outcome != vm.OutcomeDiverged {
			live = append(live, p)
			streams = max(streams, len(p.streams))
		}
	}
	if len(live) == 0 {
		return nil
	}
	d := f.takeDry(streams)
	defer f.putDry(d)
	sched, inputs := c.Scheduler(), c.Inputs()
	for j := 0; ; j++ {
		if len(live) == 1 {
			if live[0].agreesFrom(j, d, sched, inputs) {
				return live[0]
			}
			return nil
		}
		if j == len(live[0].rounds) {
			return live[0]
		}
		r := &live[0].rounds[j]
		pick, ok := d.sim.Pick(sched, r.Seq, r.Enabled)
		if !ok {
			return nil
		}
		n := 0
		for _, p := range live {
			if p.takes(j, r, pick) {
				live[n], n = p, n+1
			}
		}
		if live = live[:n]; n == 0 {
			return nil
		}
		e := &live[0].view.Trace.Events[r.Seq]
		var v trace.Value
		if e.Kind == trace.EvInput {
			v = inputs.Next(live[0].streams[e.Obj], d.counts[e.Obj])
			d.counts[e.Obj]++
		}
		n = 0
		for _, p := range live {
			if p.draws(r.Seq, e, live[0].streams, v) {
				live[n], n = p, n+1
			}
		}
		if live = live[:n]; n == 0 {
			return nil
		}
	}
}

// takes reports whether the path's round j is the lead's round r and
// picks the candidate's pick.
func (p *forkPath) takes(j int, r *vm.SchedRound, pick trace.ThreadID) bool {
	if j >= len(p.rounds) {
		return false
	}
	q := &p.rounds[j]
	return q.Pick == pick && q.Seq == r.Seq && q.Seq < uint64(len(p.view.Trace.Events)) &&
		slices.Equal(q.Enabled, r.Enabled)
}

// draws reports whether the path's event at seq draws what the lead's
// event e does, v being the candidate's value for an input draw.
func (p *forkPath) draws(seq uint64, e *trace.Event, streams []string, v trace.Value) bool {
	q := &p.view.Trace.Events[seq]
	if e.Kind != trace.EvInput {
		return q.Kind != trace.EvInput
	}
	return q.Kind == trace.EvInput && q.Obj == e.Obj && p.streams[q.Obj] == streams[e.Obj] && q.Val.Equal(v)
}

// agreesFrom continues a dry run on the path alone from its round j: it
// reports whether the candidate's scheduler and input source, which have
// taken the path's rounds before j, take every remaining decision and
// draw every remaining input value the path did.
func (p *forkPath) agreesFrom(j int, d *dryRun, sched vm.Scheduler, inputs vm.InputSource) bool {
	events := p.view.Trace.Events
	for _, r := range p.rounds[j:] {
		if r.Seq >= uint64(len(events)) {
			return false
		}
		pick, ok := d.sim.Pick(sched, r.Seq, r.Enabled)
		if !ok || pick != r.Pick {
			return false
		}
		e := &events[r.Seq]
		if e.Kind == trace.EvInput {
			idx := d.counts[e.Obj]
			d.counts[e.Obj]++
			if !inputs.Next(p.streams[e.Obj], idx).Equal(e.Val) {
				return false
			}
		}
	}
	return true
}

// takeDry returns a pooled dry run with its counts zeroed for n streams.
func (f *forker) takeDry(n int) *dryRun {
	f.mu.Lock()
	var d *dryRun
	if k := len(f.dry); k > 0 {
		d, f.dry = f.dry[k-1], f.dry[:k-1]
	}
	f.mu.Unlock()
	if d == nil {
		d = &dryRun{sim: vm.NewSchedSim()}
	}
	if cap(d.counts) < n {
		d.counts = make([]int, n)
	}
	d.counts = d.counts[:n]
	clear(d.counts)
	return d
}

// putDry returns a dry run to the pool.
func (f *forker) putDry(d *dryRun) {
	f.mu.Lock()
	f.dry = append(f.dry, d)
	f.mu.Unlock()
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

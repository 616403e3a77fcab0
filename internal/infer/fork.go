package infer

import (
	"debugdet/internal/checkpoint"
	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// This file implements checkpoint-forked candidate execution. The search
// over schedule and input non-determinism re-executes the same program
// hundreds of times, and most candidates agree with an earlier candidate
// on a long prefix of scheduling decisions and input draws: a random
// scheduler facing a singleton enabled set has no choice, a forced
// schedule pins every decision, forced input streams pin every draw. A
// from-scratch search pays for those shared prefixes over and over.
//
// The forker removes that cost without changing a single answer. It
// retains a bounded *prefix forest* of fully-executed candidates — each
// with its scheduling-round log (vm.SchedRound), periodic state snapshots
// (checkpoint.Writer) and full oracle trace. A new candidate is first
// *dry-run* against the forest: its scheduler is simulated over each
// retained execution's rounds (vm.SchedSim) and its input source probed at
// each recorded input draw, locating the first decision or value it
// disagrees on — the divergence point — without executing anything. The VM
// is deterministic, so the candidate's execution is bit-identical to the
// retained one up to that point. The candidate then restores from the best
// snapshot at or before the divergence (vm.Restore) and executes only the
// suffix; its oracle trace is stitched from the retained prefix and the
// executed suffix. A candidate that agrees with a whole retained execution
// is pruned outright — sleep-set-style reduction: an interleaving
// equivalent to one already explored costs zero executed work, and its
// finished view is shared.
type forkPath struct {
	// params are the effective build parameters (scenario defaults with
	// the candidate's overrides applied); only candidates with equal
	// effective parameters may fork off this path.
	params scenario.Params
	// rounds is the execution's scheduling-round log, one round per event.
	rounds []vm.SchedRound
	// events is the full oracle event stream (events[i].Seq == i).
	events []trace.Event
	// streams maps stream object IDs to names, for probing input sources.
	streams []string
	// snaps are the periodic snapshots, in trace order.
	snaps []*vm.Snapshot
	// plan is the shared feed derivation covering every snapshot.
	plan *checkpoint.FeedPlan
	// view is the finished execution, shared with reuse candidates.
	view *scenario.RunView
}

// ForkerConfig configures a Forker. Every candidate run through one
// Forker shares these bounds: fork soundness needs candidates that agree
// on a prefix to agree on how the run around it is configured.
type ForkerConfig struct {
	// Scenario is the program under search.
	Scenario *scenario.Scenario
	// Interval is the event interval between snapshots on retained
	// executions (0 = checkpoint.DefaultInterval).
	Interval uint64
	// MaxSteps bounds each candidate execution (0 = VM default).
	MaxSteps uint64
	// RelaxTime lifts time gates on sleeps and timeouts, as forced-schedule
	// replay requires (see vm.Config.RelaxTime).
	RelaxTime bool
}

// maxForkPaths bounds the prefix forest: how many finished executions a
// Forker retains to fork later candidates from.
const maxForkPaths = 8

// Forker runs candidate executions by forking them off retained prefixes
// instead of from scratch; see the package comment on forkPath for the
// mechanism. Its contract is bit-equivalence: Run's view is identical —
// same events, same outcome, same outputs — to what a from-scratch
// execution of the candidate would produce, while the returned work
// counts only what was actually executed.
//
// A Forker is not safe for concurrent use while the forest grows; call
// Freeze first, after which concurrent Runs share the forest read-only.
type Forker struct {
	cfg    ForkerConfig
	grow   bool
	forest []*forkPath
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

// Run executes one candidate, forking off the prefix forest when a
// retained execution shares a prefix with it. It returns the finished
// view — bit-identical to a from-scratch execution of the candidate — and
// the steps and virtual cycles actually executed (zero for a candidate
// pruned as equivalent to a retained execution; view.Result always holds
// whole-run totals).
func (f *Forker) Run(c Candidate) (view *scenario.RunView, steps, cycles uint64) {
	pEff := f.cfg.Scenario.DefaultParams.Clone(c.Params)
	base, snap, complete := f.bestFork(c, pEff)
	if complete {
		return reuseView(base, c.Seed), 0, 0
	}
	if base != nil {
		if view, steps, cycles, ok := f.runForked(c, pEff, base, snap); ok {
			return view, steps, cycles
		}
	}
	return f.runScratch(c, pEff)
}

// bestFork dry-runs the candidate against every compatible retained path
// and picks the fork restoring the most state: the path whose usable
// snapshot (latest at or before the candidate's divergence point) has the
// highest sequence number, ties broken toward the oldest path. complete
// reports that the candidate agrees with all of base and needs no
// execution at all.
func (f *Forker) bestFork(c Candidate, pEff scenario.Params) (base *forkPath, snap *vm.Snapshot, complete bool) {
	sim := vm.NewSchedSim()
	for _, p := range f.forest {
		if !paramsEqual(p.params, pEff) {
			continue
		}
		d, whole := p.divergence(sim, c)
		if whole {
			return p, nil, true
		}
		s := checkpoint.Best(p.snaps, d)
		if s == nil {
			continue
		}
		if snap == nil || s.Seq > snap.Seq {
			base, snap = p, s
		}
	}
	return base, snap, false
}

// divergence walks the path's recorded rounds, dry-running a fresh copy of
// the candidate's scheduler and probing a fresh copy of its input source,
// and returns the sequence number of the first decision or input value the
// candidate disagrees on. The VM funnels every scheduling decision through
// one round and every environment read through one input draw, so
// agreement on both pins the candidate's execution bit-identically to the
// path's prefix. complete means the candidate agrees with the entire
// execution — unless the path ended in replay divergence, whose final,
// failed scheduler consultation is not in the round log and must be
// re-taken live.
func (p *forkPath) divergence(sim *vm.SchedSim, c Candidate) (d uint64, complete bool) {
	sched := c.Scheduler()
	inputs := c.Inputs()
	counts := make([]int, len(p.streams))
	for _, r := range p.rounds {
		if r.Seq >= uint64(len(p.events)) {
			return r.Seq, false
		}
		pick, ok := sim.Pick(sched, r.Seq, r.Enabled)
		if !ok || pick != r.Pick {
			return r.Seq, false
		}
		e := &p.events[r.Seq]
		if e.Kind == trace.EvInput {
			idx := counts[e.Obj]
			counts[e.Obj]++
			if !inputs.Next(p.streams[e.Obj], idx).Equal(e.Val) {
				return r.Seq, false
			}
		}
	}
	if p.view.Result.Outcome == vm.OutcomeDiverged {
		return uint64(len(p.events)), false
	}
	return 0, true
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

// runForked restores base's state from snap and executes only the
// candidate's suffix. A false ok falls back to a from-scratch run — the
// fork machinery refusing (a feed-plan gap, a restore validation error, a
// dry-run disagreement below the snapshot) never costs correctness, only
// the shortcut.
func (f *Forker) runForked(c Candidate, pEff scenario.Params, base *forkPath, snap *vm.Snapshot) (view *scenario.RunView, steps, cycles uint64, ok bool) {
	feeds, err := base.plan.At(snap)
	if err != nil {
		return nil, 0, 0, false
	}
	// Fast-forward a fresh scheduler through the prefix's rounds: the
	// restored machine rebuilds thread state by feed replay without
	// consulting the scheduler, so its decision state must be advanced
	// here. The dry picks re-check what divergence established.
	sched := c.Scheduler()
	sim := vm.NewSchedSim()
	prefix := 0
	for _, r := range base.rounds {
		if r.Seq >= snap.Seq {
			break
		}
		pick, pok := sim.Pick(sched, r.Seq, r.Enabled)
		if !pok || pick != r.Pick {
			return nil, 0, 0, false
		}
		prefix++
	}
	insert := f.grow && len(f.forest) < maxForkPaths
	eo, snaps := f.launch(c, sched, insert)
	m, err := f.cfg.Scenario.Restore(eo, snap, feeds)
	if err != nil {
		return nil, 0, 0, false
	}
	m.Continue(0)
	res := m.Finish()

	// Stitch the full oracle trace: the retained prefix is bit-identical
	// to what the candidate would have produced, and the restored machine
	// continues sequence numbers and virtual time exactly where the
	// snapshot left them. The header mirrors scenario.Exec's.
	events := make([]trace.Event, 0, int(snap.Seq)+len(res.Trace.Events))
	events = append(events, base.events[:snap.Seq]...)
	events = append(events, res.Trace.Events...)
	tr := &trace.Log{
		Header: trace.Header{Scenario: f.cfg.Scenario.Name, Seed: c.Seed, Params: map[string]int64(pEff)},
		Sites:  m.Sites(),
		Events: events,
	}
	res.Trace = tr
	view = &scenario.RunView{Machine: m, Result: res, Trace: tr}
	if insert {
		rounds := make([]vm.SchedRound, 0, prefix+len(m.Rounds()))
		rounds = append(rounds, base.rounds[:prefix]...)
		rounds = append(rounds, m.Rounds()...)
		var kept []*vm.Snapshot
		for _, s := range base.snaps {
			if s.Seq <= snap.Seq {
				kept = append(kept, s)
			}
		}
		f.insert(pEff, view, rounds, append(kept, snaps()...))
	}
	return view, res.Steps - snap.Seq, res.Cycles - snap.Clock, true
}

// launch assembles the options a candidate's machine is launched with,
// from scratch or restored. A run that will be inserted into the forest
// keeps its round log and carries a checkpoint writer, whose snapshots
// the returned function hands back once the run has finished.
func (f *Forker) launch(c Candidate, sched vm.Scheduler, insert bool) (eo scenario.ExecOptions, snaps func() []*vm.Snapshot) {
	eo = scenario.ExecOptions{
		Seed:      c.Seed,
		Params:    c.Params,
		Scheduler: sched,
		Inputs:    c.Inputs(),
		MaxSteps:  f.cfg.MaxSteps,
		RelaxTime: f.cfg.RelaxTime,
		LogRounds: insert,
	}
	if insert {
		var cw *checkpoint.Writer
		eo.ObserverFactory = func(m *vm.Machine) []vm.Observer {
			cw = checkpoint.NewWriter(m, f.cfg.Interval)
			return []vm.Observer{cw}
		}
		snaps = func() []*vm.Snapshot { return cw.Snapshots() }
	}
	return eo, snaps
}

// runScratch executes the candidate from the beginning — the first
// candidate of every parameter group, candidates that diverge before the
// first snapshot, and any candidate the fork machinery refused.
func (f *Forker) runScratch(c Candidate, pEff scenario.Params) (*scenario.RunView, uint64, uint64) {
	insert := f.grow && len(f.forest) < maxForkPaths
	eo, snaps := f.launch(c, c.Scheduler(), insert)
	view := f.cfg.Scenario.Exec(eo)
	if insert {
		f.insert(pEff, view, view.Machine.Rounds(), snaps())
	}
	return view, view.Result.Steps, view.Result.Cycles
}

// insert retains a finished execution in the forest. A feed-plan failure
// (a trace that is not a complete event stream) just skips retention.
func (f *Forker) insert(pEff scenario.Params, view *scenario.RunView, rounds []vm.SchedRound, snaps []*vm.Snapshot) {
	plan, err := checkpoint.PlanFeeds(view.Trace.Events, snaps)
	if err != nil {
		return
	}
	f.forest = append(f.forest, &forkPath{
		params:  pEff,
		rounds:  rounds,
		events:  view.Trace.Events,
		streams: view.Machine.StreamNames(),
		snaps:   snaps,
		plan:    plan,
		view:    view,
	})
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

package replay

import (
	"debugdet/internal/record"
	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// stagedInputs is the input source for value-deterministic replay. The
// guided scheduler stages the logged value for each Input operation just
// before the machine applies it; Next returns the staged value for the
// stream. Staging is idempotent between operations, so machine peeks are
// harmless.
type stagedInputs struct {
	staged map[string]trace.Value
	base   vm.InputSource
}

func newStagedInputs(base vm.InputSource) *stagedInputs {
	return &stagedInputs{staged: make(map[string]trace.Value), base: base}
}

// Next implements vm.InputSource.
func (s *stagedInputs) Next(stream string, index int) trace.Value {
	if v, ok := s.staged[stream]; ok {
		return v
	}
	return s.base.Next(stream, index)
}

// valueGuidedScheduler rebuilds an interleaving consistent with the
// recorded per-thread value logs. The strategy is gated: the recording's
// value events are reproduced in their recorded order (the logs are kept
// with their global indexes), and between them threads may only perform
// unlogged operations — synchronization, yields, sleeps — which cannot
// change any logged value. By induction the machine state seen by each
// logged event equals the original, so every load, receive and input
// yields the recorded value: exactly the value-determinism guarantee. The
// replay may still interleave the unlogged operations differently than the
// original did, which is the cross-CPU ordering iDNA-style systems do not
// promise to reproduce.
type valueGuidedScheduler struct {
	logs map[trace.ThreadID][]trace.Event
	gidx map[trace.ThreadID][]int // recording-order index per logged event
	pos  map[trace.ThreadID]int
	next map[trace.ThreadID]int // global index of thread's next wanted event

	inputs  *stagedInputs
	streams []string // stream names by ObjID, from the recording

	rr       int // rotation for free-move fairness
	consumed int
	total    int
}

func newValueGuidedScheduler(rec *record.Recording, inputs *stagedInputs) *valueGuidedScheduler {
	logs := make(map[trace.ThreadID][]trace.Event)
	gidx := make(map[trace.ThreadID][]int)
	for i, e := range rec.Full {
		logs[e.TID] = append(logs[e.TID], e)
		gidx[e.TID] = append(gidx[e.TID], i)
	}
	s := &valueGuidedScheduler{
		logs:    logs,
		gidx:    gidx,
		pos:     make(map[trace.ThreadID]int),
		next:    make(map[trace.ThreadID]int),
		inputs:  inputs,
		streams: rec.Streams,
		total:   len(rec.Full),
	}
	//lint:nondet-ok per-key map write guarded by a per-key predicate; order cannot be observed
	for tid, idx := range gidx {
		if len(idx) > 0 {
			s.next[tid] = idx[0]
		}
	}
	return s
}

// Name implements vm.Scheduler.
func (s *valueGuidedScheduler) Name() string { return "value-guided" }

// Done reports whether every logged event was matched.
func (s *valueGuidedScheduler) Done() bool { return s.consumed == s.total }

// wantedThread returns the thread owning the globally next unconsumed
// logged event.
func (s *valueGuidedScheduler) wantedThread() (trace.ThreadID, bool) {
	best := trace.ThreadID(-1)
	bestIdx := -1
	//lint:nondet-ok min-reduction over distinct global indexes (one owner per index); the minimum is unique
	for tid, idx := range s.next {
		if bestIdx == -1 || idx < bestIdx {
			best, bestIdx = tid, idx
		}
	}
	return best, bestIdx >= 0
}

// advance consumes thread tid's next logged event.
func (s *valueGuidedScheduler) advance(tid trace.ThreadID) {
	i := s.pos[tid]
	s.pos[tid] = i + 1
	s.consumed++
	if i+1 < len(s.gidx[tid]) {
		s.next[tid] = s.gidx[tid][i+1]
	} else {
		delete(s.next, tid)
	}
}

// Pick implements vm.Scheduler. It returns nil once matching has become
// impossible, which ends the run as vm.OutcomeDiverged.
func (s *valueGuidedScheduler) Pick(m *vm.Machine, enabled []*vm.Thread) *vm.Thread {
	want, more := s.wantedThread()
	if !more {
		// Horizon passed: let the program run out naturally.
		s.rr++
		return enabled[s.rr%len(enabled)]
	}

	// If the wanted thread is enabled, it must either match its log entry
	// or be sitting at an unlogged op on the way to it.
	for _, t := range enabled {
		if t.ID() != want {
			continue
		}
		p, ok := m.PeekEvent(t)
		if !ok {
			break
		}
		if !record.ValueLogged(p.Kind) {
			// The wanted thread first needs a free move of its own.
			return t
		}
		wantEv := s.logs[want][s.pos[want]]
		if wantEv.Kind != p.Kind || wantEv.Site != p.Site || wantEv.Obj != p.Obj {
			return nil
		}
		if p.Kind != trace.EvInput && p.ValKnown && !p.Val.Equal(wantEv.Val) {
			return nil
		}
		if wantEv.Kind == trace.EvInput {
			s.inputs.staged[s.streamName(wantEv.Obj)] = wantEv.Val
		}
		s.advance(want)
		return t
	}

	// The wanted thread is blocked (e.g. on a lock) or not yet spawned:
	// run free moves — threads whose pending op is unlogged — in rotation
	// until it wakes. Lock acquisitions are deferred behind every other
	// free move: an eager out-of-order acquire can manufacture a lock
	// cycle the original execution avoided and dead-end the replay in a
	// spurious deadlock (found by the progen differential oracles), while
	// releases, yields and spawns only ever unblock progress. Acquires
	// still run when they are the only move left — the wanted thread may
	// be waiting on a channel value from inside that critical section.
	var frees, acquires []*vm.Thread
	for _, t := range enabled {
		p, ok := m.PeekEvent(t)
		if !ok || record.ValueLogged(p.Kind) {
			continue
		}
		if p.Kind == trace.EvLock {
			acquires = append(acquires, t)
		} else {
			frees = append(frees, t)
		}
	}
	if len(frees) > 0 {
		s.rr++
		return frees[s.rr%len(frees)]
	}
	if len(acquires) > 0 {
		s.rr++
		return acquires[s.rr%len(acquires)]
	}
	return nil
}

func (s *valueGuidedScheduler) streamName(id trace.ObjID) string {
	if int(id) < len(s.streams) {
		return s.streams[id]
	}
	return ""
}

// replayValue replays a value-deterministic recording with gated guided
// scheduling. The replay is deterministic; a single attempt either
// consumes the whole log or reveals a genuine divergence.
func replayValue(s *scenario.Scenario, rec *record.Recording, o Options) *Result {
	res := &Result{Note: "value-guided gated scheduling"}
	inputs := newStagedInputs(s.SearchSource(o.SearchSeed, s.DefaultParams.Clone(rec.Params)))
	sched := newValueGuidedScheduler(rec, inputs)
	view := s.Exec(scenario.ExecOptions{
		Seed:      rec.Seed,
		Params:    rec.Params,
		Scheduler: sched,
		Inputs:    inputs,
		MaxSteps:  o.MaxSteps,
		RelaxTime: true,
	})
	res.Attempts = 1
	res.WorkCycles = view.Result.Cycles
	res.WorkSteps = view.Result.Steps
	res.View = view
	if sched.Done() && matchesTerminal(s, rec.Failed, rec.FailureSig, view) {
		res.Ok = true
	}
	return res
}

package replay

import (
	"debugdet/internal/record"
	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// stagedInputs is the input source for value-deterministic replay. The
// guided scheduler stages the logged value for each Input operation when it
// picks the thread to apply it; Next returns the staged value for the
// stream, which stays staged until that stream's next logged input.
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

// valueGuidedScheduler rebuilds an interleaving that reproduces the
// recording's value log: every value-logged event, in the order it was
// recorded. The strategy is gated: the log's events are reproduced in that
// order, and between them threads may only perform unlogged operations —
// synchronization, yields, sleeps — which cannot change any logged value.
// By induction the machine state seen by each logged event equals the
// original, so every load, receive and input yields the recorded value:
// exactly the value-determinism guarantee. The scheduler observes each
// event the machine emits and checks it against the log, value included;
// a differing event ends the replay at the next pick. The replay may still
// interleave the unlogged operations differently than the original did.
type valueGuidedScheduler struct {
	log     []trace.Event // the recording's value log, in recorded order
	next    int           // index of the next logged event to emit
	differs bool          // an emitted event differed from its log entry

	inputs  *stagedInputs
	streams []string // stream names by ObjID, from the recording

	rr int // rotation for free-move fairness
}

func newValueGuidedScheduler(rec *record.Recording, inputs *stagedInputs) *valueGuidedScheduler {
	return &valueGuidedScheduler{log: rec.Full, inputs: inputs, streams: rec.Streams}
}

// Name implements vm.Scheduler.
func (s *valueGuidedScheduler) Name() string { return "value-guided" }

// Done reports whether every logged event was emitted as recorded.
func (s *valueGuidedScheduler) Done() bool { return s.next == len(s.log) && !s.differs }

// OnEvent implements vm.Observer: the next value-logged event the machine
// emits must be the log's next event. Events past the log's end are not
// checked.
func (s *valueGuidedScheduler) OnEvent(e *trace.Event) uint64 {
	if s.next < len(s.log) && record.ValueLogged(e.Kind) {
		w := &s.log[s.next]
		s.next++
		if e.TID != w.TID || e.Kind != w.Kind || e.Site != w.Site || e.Obj != w.Obj || !e.Val.Equal(w.Val) {
			s.differs = true
		}
	}
	return 0
}

// Pick implements vm.Scheduler. It returns nil once matching has become
// impossible, which ends the run as vm.OutcomeDiverged.
func (s *valueGuidedScheduler) Pick(m *vm.Machine, enabled []*vm.Thread) *vm.Thread {
	if s.differs {
		return nil
	}
	if s.next == len(s.log) {
		// Horizon passed: let the program run out naturally.
		s.rr++
		return enabled[s.rr%len(enabled)]
	}

	// If the wanted thread is enabled, it must either be at its log entry
	// or be sitting at an unlogged op on the way to it.
	want := &s.log[s.next]
	for _, t := range enabled {
		if t.ID() != want.TID {
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
		if want.Kind != p.Kind || want.Site != p.Site || want.Obj != p.Obj {
			return nil
		}
		if want.Kind == trace.EvInput {
			s.inputs.staged[s.streamName(want.Obj)] = want.Val
		}
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
	inputs := newStagedInputs(s.SearchSource(o.SearchSeed))
	sched := newValueGuidedScheduler(rec, inputs)
	// The run's trace starts at the recorded length (clamped, the header
	// being unverified), not at a production run's default.
	first := &scenario.RunView{Trace: &trace.Log{Events: trace.Presize(rec.EventCount, o.MaxSteps)}}
	view := scenario.ExecInto(s, scenario.ExecOptions{
		Seed:            rec.Seed,
		Params:          rec.Params,
		Scheduler:       sched,
		Inputs:          inputs,
		ObserverFactory: func(*vm.Machine) []vm.Observer { return []vm.Observer{sched} },
		MaxSteps:        o.MaxSteps,
		RelaxTime:       true,
	}, first, nil)
	res.Attempts = 1
	res.WorkCycles = view.Result.Cycles
	res.WorkSteps = view.Result.Steps
	res.View = view
	if sched.Done() && matchesTerminal(s, rec.Failed, rec.FailureSig, view) {
		res.Ok = true
	}
	return res
}

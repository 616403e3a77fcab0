// Package rcse implements root cause-driven selectivity (§3.1): the
// recording policy of debug determinism. It keeps the thread schedule and
// the inputs of the control plane, and relaxes the data plane (§4:
// "recording just the data on control-plane channels and the thread
// schedule").
//
// The policy records every input drawn from the declared control streams
// in full and keeps every other event at the schedule floor. So each input
// stream is recorded entirely or not at all, and
// record.Recording.InputsByStream is index-exact.
//
// The paper's other selectors are not implemented, because none changed a
// replay (DESIGN.md §2): code-based selection (§3.1.1) recorded sites that
// hold nothing a replay forces, and the invariant and race triggers
// (§3.1.2, §3.1.3) fire after the root-cause draw they would need to
// record.
//
// The replayer (replay.Replay, model debug-rcse) forces the schedule and
// every recorded input, and re-synthesizes the rest by search. It reads
// the recording alone, never the declared streams. Because every candidate
// in that search shares the forced schedule and inputs, it benefits most
// from equivalence-pruned candidate execution (infer.Options.Fork,
// replay.Options.Fork): a candidate that draws the same data-plane values
// as an earlier one is pruned to zero work.
package rcse

import (
	"slices"

	"debugdet/internal/record"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// Policy is the RCSE recording policy of one machine: the inputs of the
// named control streams in full, every other event at LevelSched (the
// thread schedule is always kept). A program may register a stream when a
// thread first draws from it, after the policy is built, so the policy
// resolves a stream's name the first time one of its inputs appears and
// caches the answer.
type Policy struct {
	m       *vm.Machine
	names   []string
	control map[trace.ObjID]bool
}

// NewPolicy returns the policy that records the named streams of machine m.
func NewPolicy(m *vm.Machine, names []string) *Policy {
	return &Policy{m: m, names: names, control: make(map[trace.ObjID]bool)}
}

// Name implements record.Policy.
func (p *Policy) Name() string { return "rcse" }

// Level implements record.Policy.
func (p *Policy) Level(e *trace.Event) record.Level {
	if e.Kind != trace.EvInput {
		return record.LevelSched
	}
	control, ok := p.control[e.Obj]
	if !ok {
		control = slices.Contains(p.names, p.m.StreamName(e.Obj))
		p.control[e.Obj] = control
	}
	if control {
		return record.LevelFull
	}
	return record.LevelSched
}

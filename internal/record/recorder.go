package record

import (
	"slices"

	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// Policy is what a recording holds: the events it persists in full, and
// whether it keeps the run's thread schedule. A policy that keeps the
// schedule keeps every event's thread in it, so the schedule always covers
// the whole run; only RCSE's does (a perfect recording's schedule is the
// threads of its full events, see Recording.SchedFrom).
type Policy struct {
	Name string
	// Full reports whether an event is persisted in full. It may be
	// stateful (RCSE's caches which streams it records), so a policy
	// serves one recorder.
	Full func(e *trace.Event) bool
	// Sched keeps the thread of every event in the recording's schedule.
	Sched bool
}

// Recorder persists an execution's events according to a policy. It
// implements vm.Observer, but is driven offline over a finished run's trace
// (Project): since recording cost is kept off the virtual clock, that is
// the run a live recorder would have seen.
//
// It charges each event the bytes it adds to the recording file, as the
// trace codec prices them: a full event's share of the event section, and
// its schedule entry when the policy keeps the schedule. Bytes is what the
// two sections hold. Each full event costs RecordEventCycles and each byte
// RecordByteCycles.
//
// Neither the full events nor the schedule are copied as they pass: the
// run's trace already holds each event, so the recorder keeps only which
// of them are full, and Capture projects the full events and the schedule
// out of the trace (see fullOf).
type Recorder struct {
	policy *Policy
	cost   *vm.CostModel

	// allFull stays true while every event so far was full-level (always,
	// under perfect determinism); once it is false, fullIdx holds the
	// trace index of every full-level event.
	allFull bool
	fullIdx []int
	// last is the last full-level event, which the next one is priced
	// after (the zero Event before the first); lastTID is the thread of
	// the last event, which its schedule entry is priced after.
	last    trace.Event
	lastTID trace.ThreadID

	events                 uint64
	fullCount              uint64
	eventBytes, schedBytes int64
}

// NewRecorder builds a recorder pricing its work against the machine's
// cost model.
func NewRecorder(m *vm.Machine, policy *Policy) *Recorder {
	return &Recorder{policy: policy, cost: m.Cost(), allFull: true}
}

// OnEvent implements vm.Observer. The machine appends every event to its
// trace before observers see it, so the event's trace index is the number
// of events observed before it.
func (r *Recorder) OnEvent(e *trace.Event) uint64 {
	idx := int(r.events)
	r.events++
	var entry int // the bytes of the event's schedule entry
	if r.policy.Sched {
		entry = trace.SchedEntrySize(r.lastTID, e.TID)
		r.lastTID = e.TID
		r.schedBytes += int64(entry)
	}
	if !r.policy.Full(e) {
		if r.allFull {
			r.allFull = false
			r.fullIdx = make([]int, r.fullCount)
			for i := range r.fullIdx {
				r.fullIdx[i] = i
			}
		}
		return uint64(entry) * r.cost.RecordByteCycles
	}
	if !r.allFull {
		r.fullIdx = append(r.fullIdx, idx)
	}
	r.fullCount++
	n := trace.EventSize(&r.last, e)
	r.last = *e
	r.eventBytes += int64(n)
	return r.cost.RecordCost(n + entry)
}

// fullOf projects the full-level events out of the run's trace: the trace
// itself when every event was full, clipped so that an append to either
// cannot write into the other; otherwise one exact-size copy. tr must be
// the trace of the run the recorder observed, from its first event.
func (r *Recorder) fullOf(tr *trace.Log) []trace.Event {
	if r.fullCount == 0 {
		return nil
	}
	if r.allFull {
		return tr.Events[:r.fullCount:r.fullCount]
	}
	full := make([]trace.Event, len(r.fullIdx))
	for i, j := range r.fullIdx {
		full[i] = tr.Events[j]
	}
	return full
}

// Bytes returns the recorded log volume: the bytes of the recording's
// event and schedule sections, less their counts.
func (r *Recorder) Bytes() int64 { return r.eventBytes + r.schedBytes }

// Perfect determinism: everything, in full. The thread order is that of
// the full events, so no schedule is kept beside them.
func perfectPolicy() *Policy {
	return &Policy{Name: "perfect", Full: func(*trace.Event) bool { return true }}
}

// Value determinism: every value read or written at every execution point
// (loads, stores, sends, receives, inputs, outputs, probes, disk ops,
// failures), each event with its sequence number, so the log keeps the
// order of its own events across threads. Synchronization events are not
// persisted at all — replay must rediscover an interleaving of them that
// reproduces the logged events in that order, which is exactly the extra
// work value-deterministic systems push to debug time.
func valuePolicy() *Policy {
	return &Policy{Name: "value", Full: func(e *trace.Event) bool { return ValueLogged(e.Kind) }}
}

// ValueLogged reports whether value determinism logs events of kind k: the
// payload-bearing kinds, which the value replayer reproduces in order.
func ValueLogged(k trace.EventKind) bool {
	//lint:exhaustive-default the value policy persists exactly the payload-bearing kinds; skipping the rest is the scheme's definition
	switch k {
	case trace.EvLoad, trace.EvStore, trace.EvSend, trace.EvRecv,
		trace.EvInput, trace.EvOutput, trace.EvObserve,
		trace.EvFail, trace.EvCrash,
		trace.EvDiskWrite, trace.EvDiskRead, trace.EvDiskFsync,
		trace.EvDiskBarrier, trace.EvDiskCrash:
		return true
	}
	return false
}

// Output determinism, lightest ODR scheme: outputs only. Inputs, paths,
// schedules and race orders are all left to inference.
func outputPolicy() *Policy {
	return &Policy{Name: "output", Full: func(e *trace.Event) bool {
		//lint:exhaustive-default output determinism records outputs and failures only; every other kind is inferred at debug time
		switch e.Kind {
		case trace.EvOutput, trace.EvFail, trace.EvCrash:
			return true
		}
		return false
	}}
}

// Failure determinism: nothing at runtime. The failure signature is
// extracted from the run result post-mortem (see Capture).
func failurePolicy() *Policy {
	return &Policy{Name: "failure", Full: func(*trace.Event) bool { return false }}
}

// RCSEPolicy returns debug determinism's policy on machine m (root
// cause-driven selectivity, §3.1): the thread schedule, and every input of
// the named control streams in full. A program may register a stream when
// a thread first draws from it, after the policy is built, so the policy
// resolves a stream's name the first time one of its inputs appears and
// caches the answer.
func RCSEPolicy(m *vm.Machine, streams []string) *Policy {
	control := make(map[trace.ObjID]bool)
	return &Policy{Name: "rcse", Sched: true, Full: func(e *trace.Event) bool {
		if e.Kind != trace.EvInput {
			return false
		}
		c, ok := control[e.Obj]
		if !ok {
			c = slices.Contains(streams, m.StreamName(e.Obj))
			control[e.Obj] = c
		}
		return c
	}}
}

// PolicyFor returns the stock policy for a model. DebugRCSE has none: its
// policy needs the scenario's control streams and the run's machine
// (RCSEPolicy), which this signature, the one bench/ compiles against,
// does not carry. Requesting it returns nil.
func PolicyFor(m Model) *Policy {
	switch m {
	case Perfect:
		return perfectPolicy()
	case Value:
		return valuePolicy()
	case Output:
		return outputPolicy()
	case Failure:
		return failurePolicy()
	}
	return nil
}

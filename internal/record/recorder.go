package record

import (
	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// Level is the fidelity at which one event is persisted.
type Level uint8

// Levels.
const (
	// LevelSkip persists nothing.
	LevelSkip Level = iota
	// LevelSched persists only the scheduling decision (the thread ID):
	// one byte in the schedule stream.
	LevelSched
	// LevelFull persists the complete event including its value payload.
	LevelFull
)

// Policy decides the fidelity level for each event. Policies may be
// stateful (the RCSE policy caches which streams it records).
type Policy interface {
	Name() string
	Level(e *trace.Event) Level
}

// PolicyFunc adapts a function to Policy.
type PolicyFunc struct {
	N string
	F func(e *trace.Event) Level
}

// Name implements Policy.
func (p PolicyFunc) Name() string { return p.N }

// Level implements Policy.
func (p PolicyFunc) Level(e *trace.Event) Level { return p.F(e) }

// FullEventBytes is the serialized-size estimate of one fully recorded
// event (kind, thread, site, object, sequence delta and payload) — the unit
// both the stock full-level recorder and the flight recorder charge against
// the cost model, so the two record paths price identically and share one
// virtual schedule.
func FullEventBytes(e *trace.Event) int { return 10 + e.Val.Size() }

// Recorder persists an execution's events according to a policy. It
// implements vm.Observer, but is driven offline over a finished run's trace
// (Project): since recording cost is kept off the virtual clock, that is
// the run a live recorder would have seen.
//
// The full-level events are not copied as they pass: the run's trace
// already holds each one, so the recorder keeps only which of them are
// full, and Capture projects them out of the trace (see fullOf).
type Recorder struct {
	policy Policy
	cost   *vm.CostModel

	// allFull stays true while every event so far was full-level (always,
	// under perfect determinism); once it is false, fullIdx holds the
	// trace index of every full-level event.
	allFull bool
	fullIdx []int
	sched   []trace.ThreadID

	// schedComplete stays true while every event so far has contributed
	// at least a schedule entry — the condition under which the schedule
	// stream can drive a ReplayScheduler.
	schedComplete bool

	events     uint64
	fullCount  uint64
	schedCount uint64
	bytes      int64
}

// NewRecorder builds a recorder pricing its work against the machine's
// cost model.
func NewRecorder(m *vm.Machine, policy Policy) *Recorder {
	return &Recorder{policy: policy, cost: m.Cost(), allFull: true, schedComplete: true}
}

// OnEvent implements vm.Observer. The machine appends every event to its
// trace before observers see it, so the event's trace index is the number
// of events observed before it.
func (r *Recorder) OnEvent(e *trace.Event) uint64 {
	idx := int(r.events)
	r.events++
	level := r.policy.Level(e)
	if level != LevelFull && r.allFull {
		r.allFull = false
		r.fullIdx = make([]int, r.fullCount)
		for i := range r.fullIdx {
			r.fullIdx[i] = i
		}
	}
	switch level {
	case LevelSkip:
		r.schedComplete = false
		return 0
	case LevelSched:
		r.sched = append(r.sched, e.TID)
		r.schedCount++
		r.bytes++
		return r.cost.RecordByteCycles
	default: // LevelFull
		if !r.allFull {
			r.fullIdx = append(r.fullIdx, idx)
		}
		r.sched = append(r.sched, e.TID)
		r.fullCount++
		b := FullEventBytes(e)
		r.bytes += int64(b) + 1
		return r.cost.RecordCost(b)
	}
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

// Bytes returns the recorded log volume.
func (r *Recorder) Bytes() int64 { return r.bytes }

// Events returns how many events the recorder observed.
func (r *Recorder) Events() uint64 { return r.events }

// FullCount returns how many events were persisted in full.
func (r *Recorder) FullCount() uint64 { return r.fullCount }

// Perfect determinism: everything, in full.
func perfectPolicy() Policy {
	return PolicyFunc{N: "perfect", F: func(*trace.Event) Level { return LevelFull }}
}

// Value determinism: every value read or written at every execution point
// (loads, stores, sends, receives, inputs, outputs, probes), with no
// cross-thread ordering. Synchronization events are not persisted at all —
// replay must rediscover a consistent interleaving, which is exactly the
// extra work value-deterministic systems push to debug time.
func valuePolicy() Policy {
	return PolicyFunc{N: "value", F: func(e *trace.Event) Level {
		if ValueLogged(e.Kind) {
			return LevelFull
		}
		return LevelSkip
	}}
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
func outputPolicy() Policy {
	return PolicyFunc{N: "output", F: func(e *trace.Event) Level {
		//lint:exhaustive-default output determinism records outputs and failures only; every other kind is inferred at debug time
		switch e.Kind {
		case trace.EvOutput, trace.EvFail, trace.EvCrash:
			return LevelFull
		}
		return LevelSkip
	}}
}

// Failure determinism: nothing at runtime. The failure signature is
// extracted from the run result post-mortem (see Capture).
func failurePolicy() Policy {
	return PolicyFunc{N: "failure", F: func(*trace.Event) Level { return LevelSkip }}
}

// PolicyFor returns the stock policy for a model. DebugRCSE has no stock
// policy — it is built by the rcse package from the scenario's control
// streams — so requesting it returns nil and the caller must supply one.
func PolicyFor(m Model) Policy {
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

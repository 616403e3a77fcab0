// Package rcse implements root cause-driven selectivity (§3.1): the
// recording policy of debug determinism. It keeps the thread schedule and
// the inputs of the control plane, and relaxes the data plane (§4:
// "recording just the data on control-plane channels and the thread
// schedule").
//
// A Policy takes the maximum level its selectors demand per event, over
// the thread-schedule floor RCSE always keeps:
//
//   - the StreamSelector records every input drawn from the declared
//     control streams; Config.Build always arms it;
//   - data-based selection (§3.1.2): an invariant monitor watches probe
//     points; a violation signals a likely error path and dials fidelity
//     up from that point on;
//   - combined code/data triggers (§3.1.3): a low-overhead race detector
//     fires a dial-up; after a quiet period with no trigger activity,
//     fidelity dials back down.
//
// Code-based selection (§3.1.1), which classifies sites from a profiling
// run, is not implemented: the sites it records hold nothing a replay
// forces (DESIGN.md §2).
//
// The policy records each input stream as a prefix of its draws: once a
// draw of a stream is recorded below full, no later draw of that stream is
// recorded in full. So record.Recording.InputsByStream is index-exact, and
// the replayer (replay.Replay, model debug-rcse) forces the schedule and
// every recorded input, and re-synthesizes the rest by search. It reads
// the recording alone, never the declared streams. Because every candidate
// in that search shares the forced schedule and inputs, it benefits most
// from equivalence-pruned candidate execution (infer.Options.Fork,
// replay.Options.Fork): a candidate that draws the same data-plane values
// as an earlier one is pruned to zero work.
package rcse

import (
	"slices"

	"debugdet/internal/invariant"
	"debugdet/internal/race"
	"debugdet/internal/record"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// The armed detectors' fixed parameters.
const (
	raceSampleRate = 4    // the race detector samples one access in this many
	raceCheckCost  = 2    // cycles charged per sampled race check
	invariantCost  = 2    // cycles charged per monitored probe
	quietPeriod    = 2000 // quiet events after which a fired trigger dials down
)

// Selector demands a fidelity level per event. Selectors may keep state
// (triggers dial up and down as the execution proceeds).
type Selector interface {
	Demand(e *trace.Event) record.Level
}

// Policy is an RCSE recording policy: the maximum level any selector
// demands, with LevelSched as the floor (the thread schedule is always
// kept), and each input stream recorded as a prefix of its draws.
type Policy struct {
	selectors []Selector
	// cut holds the input streams with a draw recorded below full: none of
	// their later draws is recorded in full.
	cut map[trace.ObjID]bool
}

// NewPolicy combines selectors into a policy.
func NewPolicy(selectors ...Selector) *Policy {
	return &Policy{selectors: selectors, cut: make(map[trace.ObjID]bool)}
}

// Name implements record.Policy.
func (p *Policy) Name() string { return "rcse" }

// Level implements record.Policy.
func (p *Policy) Level(e *trace.Event) record.Level {
	level := record.LevelSched
	for _, s := range p.selectors {
		level = max(level, s.Demand(e))
	}
	if e.Kind == trace.EvInput {
		if p.cut[e.Obj] {
			return record.LevelSched
		}
		if level < record.LevelFull {
			p.cut[e.Obj] = true
		}
	}
	return level
}

// StreamSelector records every input drawn from the declared control
// streams (routing metadata and other control inputs) in full. A program
// may register a stream when a thread first draws from it, after the
// policy is built, so the selector resolves a stream's name the first time
// one of its inputs appears and caches the answer.
type StreamSelector struct {
	m       *vm.Machine
	names   []string
	control map[trace.ObjID]bool
}

// NewStreamSelector selects the named streams of machine m.
func NewStreamSelector(m *vm.Machine, names []string) *StreamSelector {
	return &StreamSelector{m: m, names: names, control: make(map[trace.ObjID]bool)}
}

// Demand implements Selector.
func (s *StreamSelector) Demand(e *trace.Event) record.Level {
	if e.Kind != trace.EvInput {
		return record.LevelSkip
	}
	control, ok := s.control[e.Obj]
	if !ok {
		control = slices.Contains(s.names, s.m.StreamName(e.Obj))
		s.control[e.Obj] = control
	}
	if control {
		return record.LevelFull
	}
	return record.LevelSkip
}

// Trigger is a stateful dial-up/dial-down selector. External detectors
// (race detector, invariant monitor) call Fire; from that point every
// event is recorded fully (an input only while its stream's recorded
// prefix is unbroken, see Policy) until the quiet period passes without
// another firing, at which point fidelity dials back down (§3.1.3's
// "dialing down recording fidelity is also important").
type Trigger struct {
	quiet    uint64 // 0 keeps a fired trigger up forever
	dialed   bool
	lastFire uint64
	lastSeq  uint64
	firings  int
}

// NewTrigger returns a trigger that disarms quietPeriod events after its
// last firing; 0 means it stays up forever once fired.
func NewTrigger(quietPeriod uint64) *Trigger {
	return &Trigger{quiet: quietPeriod}
}

// Fire dials recording fidelity up. Safe to call from detector callbacks
// mid-event; the elevated level applies from the next event onward.
func (t *Trigger) Fire() {
	t.dialed = true
	t.lastFire = t.lastSeq
	t.firings++
}

// Fired reports how many times the trigger fired.
func (t *Trigger) Fired() int { return t.firings }

// Demand implements Selector.
func (t *Trigger) Demand(e *trace.Event) record.Level {
	t.lastSeq = e.Seq
	if !t.dialed {
		return record.LevelSched
	}
	if t.quiet > 0 && e.Seq-t.lastFire > t.quiet {
		t.dialed = false
		return record.LevelSched
	}
	return record.LevelFull
}

// Config assembles a complete RCSE setup: the policy for the recorder plus
// the detector observers that must be attached to the same machine.
type Config struct {
	// ControlStreams (by name) are always-recorded input streams.
	ControlStreams []string
	// Race arms the sampling race-detector trigger.
	Race bool
	// Invariants enables the invariant-monitor trigger when non-nil.
	Invariants *invariant.Set
}

// Setup is the assembled RCSE machinery for one machine.
type Setup struct {
	Policy    *Policy
	Observers []vm.Observer
	// RaceTrigger and InvariantTrigger expose firing statistics (nil when
	// the corresponding detector is disabled).
	RaceTrigger      *Trigger
	InvariantTrigger *Trigger
}

// Build constructs the policy and observers for a machine. It is used as
// a record.PolicyFactory body.
func (c Config) Build(m *vm.Machine) *Setup {
	selectors := []Selector{NewStreamSelector(m, c.ControlStreams)}
	setup := &Setup{}
	if c.Race {
		tr := NewTrigger(quietPeriod)
		setup.RaceTrigger = tr
		setup.Observers = append(setup.Observers, race.NewDetector(race.Options{
			SampleRate: raceSampleRate,
			CheckCost:  raceCheckCost,
			OnRace:     func(race.Race) { tr.Fire() },
		}))
		selectors = append(selectors, tr)
	}
	if c.Invariants != nil {
		tr := NewTrigger(quietPeriod)
		setup.InvariantTrigger = tr
		setup.Observers = append(setup.Observers, invariant.NewMonitor(c.Invariants, invariantCost,
			func(invariant.Violation) { tr.Fire() }))
		selectors = append(selectors, tr)
	}
	setup.Policy = NewPolicy(selectors...)
	return setup
}

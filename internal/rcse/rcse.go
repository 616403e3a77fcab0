// Package rcse implements root cause-driven selectivity (§3.1): the
// recording policy that makes debug determinism practical. RCSE predicts
// where the root cause of a future failure is likely to lie and records
// those portions of the execution at full fidelity while relaxing the
// rest.
//
// Three selector families are provided, mirroring the paper:
//
//   - code-based selection (§3.1.1): control-plane sites, as classified by
//     the plane package, are recorded fully; data-plane sites contribute
//     only their scheduling decision;
//   - data-based selection (§3.1.2): an invariant monitor watches probe
//     points; a violation signals a likely error path and dials fidelity
//     up from that point on;
//   - combined code/data triggers (§3.1.3): a low-overhead race detector
//     fires a dial-up; after a quiet period with no trigger activity,
//     fidelity dials back down.
//
// A Policy combines any set of selectors by taking the maximum demanded
// level per event, over the baseline thread-schedule stream that RCSE
// always keeps. Config.Build always adds the StreamSelector as well, so
// every recording holds what the RCSE replayer forces (§4: "recording
// just the data on control-plane channels and the thread schedule").
//
// Replaying an RCSE recording re-synthesizes the unrecorded data plane by
// search (replay.Replay, model debug-rcse). Because every candidate in
// that search shares the recording's forced schedule and control inputs,
// it benefits most from equivalence-pruned candidate execution
// (infer.Options.Fork, replay.Options.Fork): a candidate that draws the same
// data-plane values as an earlier one is pruned to zero work.
package rcse

import (
	"debugdet/internal/invariant"
	"debugdet/internal/plane"
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
// kept).
type Policy struct {
	selectors []Selector
}

// NewPolicy combines selectors into a policy.
func NewPolicy(selectors ...Selector) *Policy {
	return &Policy{selectors: selectors}
}

// Name implements record.Policy.
func (p *Policy) Name() string { return "rcse" }

// Level implements record.Policy.
func (p *Policy) Level(e *trace.Event) record.Level {
	level := record.LevelSched
	for _, s := range p.selectors {
		if d := s.Demand(e); d > level {
			level = d
		}
	}
	return level
}

// StreamSelector records every input drawn from the declared control
// streams (routing metadata and other control inputs) in full. The RCSE
// replayer forces exactly these streams and the schedule, so Config.Build
// arms it whatever else is selected.
type StreamSelector map[trace.ObjID]bool

// Demand implements Selector.
func (s StreamSelector) Demand(e *trace.Event) record.Level {
	if e.Kind == trace.EvInput && s[e.Obj] {
		return record.LevelFull
	}
	return record.LevelSkip
}

// CodeSelector implements code-based selection over a plane
// classification: full fidelity for control-plane sites and terminal
// events, schedule-only elsewhere.
type CodeSelector struct {
	classification *plane.Classification
}

// NewCodeSelector builds the selector.
func NewCodeSelector(c *plane.Classification) *CodeSelector {
	return &CodeSelector{classification: c}
}

// Demand implements Selector.
func (s *CodeSelector) Demand(e *trace.Event) record.Level {
	if e.Kind.IsTerminal() {
		return record.LevelFull
	}
	if e.Site != trace.NoSite && s.classification.IsControl(e.Site) {
		return record.LevelFull
	}
	return record.LevelSched
}

// Trigger is a stateful dial-up/dial-down selector. External detectors
// (race detector, invariant monitor) call Fire; from that point every
// event is recorded fully until the quiet period passes without another
// firing, at which point fidelity dials back down (§3.1.3's "dialing down
// recording fidelity is also important").
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
	// Classification enables code-based selection when non-nil.
	Classification *plane.Classification
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

// Build constructs the policy and observers for a machine on which the
// scenario's program has already been built (streams registered). It is
// used as a record.PolicyFactory body.
func (c Config) Build(m *vm.Machine) *Setup {
	streams := make(StreamSelector, len(c.ControlStreams))
	for _, name := range c.ControlStreams {
		if id, ok := m.StreamID(name); ok {
			streams[id] = true
		}
	}
	selectors := []Selector{streams}
	setup := &Setup{}

	if c.Classification != nil {
		selectors = append(selectors, NewCodeSelector(c.Classification))
	}
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

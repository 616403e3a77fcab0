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
//   - combined code/data triggers (§3.1.3): runtime predicates — a
//     low-overhead race detector, request-size thresholds, or custom
//     potential-bug detectors — fire a dial-up; after a quiet period with
//     no trigger activity, fidelity dials back down.
//
// A Policy combines any set of selectors by taking the maximum demanded
// level per event, plus the baseline thread-schedule stream that RCSE
// always keeps (§4: "recording just the data on control-plane channels and
// the thread schedule").
//
// Replaying an RCSE recording re-synthesizes the unrecorded data plane by
// search (replay.Replay, model debug-rcse). Because every candidate in
// that search shares the recording's forced schedule and control inputs,
// it benefits most from equivalence-pruned candidate execution
// (infer.Forker, replay.Options.Fork): a candidate that draws the same
// data-plane values as an earlier one is pruned to zero work.
package rcse

import (
	"debugdet/internal/invariant"
	"debugdet/internal/lint/sites"
	"debugdet/internal/plane"
	"debugdet/internal/race"
	"debugdet/internal/record"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// Selector demands a fidelity level per event. Selectors may keep state
// (triggers dial up and down as the execution proceeds).
type Selector interface {
	Name() string
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

// SuspectSelector records at full fidelity around statically implicated
// lock-order suspects (detlint's lockorder analysis via sites.Triage):
// every event at a suspect acquisition site, and every lock/unlock of a
// suspect mutex. Site and mutex IDs are stable across runs of a scenario
// at fixed parameters — workloads register both deterministically — which
// is what lets a triage run's suspects select in a later recording run.
type SuspectSelector struct {
	siteSet map[trace.SiteID]bool
	objSet  map[trace.ObjID]bool
}

// NewSuspectSelector builds the selector from triaged suspects.
func NewSuspectSelector(suspects []sites.Suspect) *SuspectSelector {
	s := &SuspectSelector{
		siteSet: make(map[trace.SiteID]bool),
		objSet:  make(map[trace.ObjID]bool),
	}
	for _, sp := range suspects {
		for _, id := range sp.Sites {
			s.siteSet[id] = true
		}
		for _, id := range sp.Objs {
			s.objSet[id] = true
		}
	}
	return s
}

// Name implements Selector.
func (s *SuspectSelector) Name() string { return "suspects" }

// Demand implements Selector.
func (s *SuspectSelector) Demand(e *trace.Event) record.Level {
	if s.siteSet[e.Site] {
		return record.LevelFull
	}
	if (e.Kind == trace.EvLock || e.Kind == trace.EvUnlock) && s.objSet[e.Obj] {
		return record.LevelFull
	}
	return record.LevelSkip
}

// CodeSelector implements code-based selection over a plane
// classification: full fidelity for control-plane sites and for the
// declared control input streams, schedule-only elsewhere.
type CodeSelector struct {
	classification *plane.Classification
	controlStreams map[trace.ObjID]bool
}

// NewCodeSelector builds the selector. controlStreams are the stream
// object IDs whose inputs must always be recorded (routing metadata and
// other control inputs), independent of site classification.
func NewCodeSelector(c *plane.Classification, controlStreams map[trace.ObjID]bool) *CodeSelector {
	return &CodeSelector{classification: c, controlStreams: controlStreams}
}

// Name implements Selector.
func (s *CodeSelector) Name() string { return "code" }

// Demand implements Selector.
func (s *CodeSelector) Demand(e *trace.Event) record.Level {
	if e.Kind == trace.EvInput && s.controlStreams[e.Obj] {
		return record.LevelFull
	}
	if e.Kind.IsTerminal() {
		return record.LevelFull
	}
	if e.Site != trace.NoSite && s.classification.IsControl(e.Site) {
		return record.LevelFull
	}
	return record.LevelSched
}

// Trigger is a stateful dial-up/dial-down selector. External detectors
// (race detector, invariant monitor, threshold watchers) call Fire; from
// that point every event is recorded fully until QuietPeriod events pass
// without another firing, at which point fidelity dials back down
// (§3.1.3's "dialing down recording fidelity is also important").
type Trigger struct {
	// QuietPeriod is the number of events after the last firing at which
	// the trigger disarms. 0 means it stays up forever once fired.
	QuietPeriod uint64

	name     string
	dialed   bool
	lastFire uint64
	lastSeq  uint64
	firings  int
}

// NewTrigger returns a named trigger.
func NewTrigger(name string, quietPeriod uint64) *Trigger {
	return &Trigger{name: name, QuietPeriod: quietPeriod}
}

// Name implements Selector.
func (t *Trigger) Name() string { return t.name }

// Fire dials recording fidelity up. Safe to call from detector callbacks
// mid-event; the elevated level applies from the next event onward.
func (t *Trigger) Fire() {
	t.dialed = true
	t.lastFire = t.lastSeq
	t.firings++
}

// Fired reports how many times the trigger fired.
func (t *Trigger) Fired() int { return t.firings }

// DialedUp reports whether the trigger is currently demanding full
// fidelity.
func (t *Trigger) DialedUp() bool { return t.dialed }

// Demand implements Selector.
func (t *Trigger) Demand(e *trace.Event) record.Level {
	t.lastSeq = e.Seq
	if !t.dialed {
		return record.LevelSched
	}
	if t.QuietPeriod > 0 && e.Seq-t.lastFire > t.QuietPeriod {
		t.dialed = false
		return record.LevelSched
	}
	return record.LevelFull
}

// ThresholdSelector fires its trigger when an event matches a predicate —
// the paper's data-based selection example of recording at high fidelity
// when request sizes exceed a threshold. The selector inspects events
// inline, so it needs no separate observer.
type ThresholdSelector struct {
	*Trigger
	pred func(e *trace.Event) bool
}

// NewThresholdSelector builds a predicate-fired trigger selector.
func NewThresholdSelector(name string, quietPeriod uint64, pred func(e *trace.Event) bool) *ThresholdSelector {
	return &ThresholdSelector{Trigger: NewTrigger(name, quietPeriod), pred: pred}
}

// Demand implements Selector.
func (s *ThresholdSelector) Demand(e *trace.Event) record.Level {
	if s.pred(e) {
		s.Fire()
		return record.LevelFull
	}
	return s.Trigger.Demand(e)
}

// Config assembles a complete RCSE setup: the policy for the recorder plus
// the detector observers that must be attached to the same machine.
type Config struct {
	// Classification enables code-based selection when non-nil.
	Classification *plane.Classification
	// ControlStreams (by name) are always-recorded input streams.
	ControlStreams []string
	// RaceTrigger enables the race-detector trigger with the given
	// sampling rate and per-check cost; zero disables it.
	RaceSampleRate uint64
	RaceCheckCost  uint64
	// Invariants enables the invariant-monitor trigger when non-nil.
	Invariants    *invariant.Set
	InvariantCost uint64
	// Thresholds are additional predicate-fired selectors.
	Thresholds []*ThresholdSelector
	// QuietPeriod configures trigger dial-down (events).
	QuietPeriod uint64
	// Suspects enables full-fidelity recording around statically
	// implicated lock-order inversions when non-empty.
	Suspects []sites.Suspect
}

// Setup is the assembled RCSE machinery for one machine.
type Setup struct {
	Policy    *Policy
	Observers []vm.Observer
	// RaceTrigger and InvariantTrigger expose firing statistics (nil when
	// the corresponding detector is disabled).
	RaceTrigger      *Trigger
	InvariantTrigger *Trigger
	Detector         *race.Detector
	Monitor          *invariant.Monitor
}

// Build constructs the policy and observers for a machine on which the
// scenario's program has already been built (streams registered). It is
// used as a record.PolicyFactory body.
func (c Config) Build(m *vm.Machine) *Setup {
	var selectors []Selector
	setup := &Setup{}

	if c.Classification != nil {
		streams := make(map[trace.ObjID]bool, len(c.ControlStreams))
		for _, name := range c.ControlStreams {
			if id, ok := m.StreamID(name); ok {
				streams[id] = true
			}
		}
		selectors = append(selectors, NewCodeSelector(c.Classification, streams))
	}
	quiet := c.QuietPeriod
	if c.RaceSampleRate > 0 {
		tr := NewTrigger("race-trigger", quiet)
		setup.RaceTrigger = tr
		setup.Detector = race.NewDetector(race.Options{
			SampleRate: c.RaceSampleRate,
			CheckCost:  c.RaceCheckCost,
			OnRace:     func(race.Race) { tr.Fire() },
		})
		setup.Observers = append(setup.Observers, setup.Detector)
		selectors = append(selectors, tr)
	}
	if c.Invariants != nil {
		tr := NewTrigger("invariant-trigger", quiet)
		setup.InvariantTrigger = tr
		setup.Monitor = invariant.NewMonitor(c.Invariants, c.InvariantCost,
			func(invariant.Violation) { tr.Fire() })
		setup.Observers = append(setup.Observers, setup.Monitor)
		selectors = append(selectors, tr)
	}
	for _, th := range c.Thresholds {
		selectors = append(selectors, th)
	}
	if len(c.Suspects) > 0 {
		selectors = append(selectors, NewSuspectSelector(c.Suspects))
	}
	setup.Policy = NewPolicy(selectors...)
	return setup
}

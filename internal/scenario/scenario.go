// Package scenario defines the workload contract: how a buggy program, its
// environment, its failure specification and its possible root causes are
// described to the record/replay machinery.
//
// The definitions follow §3 of the paper directly. A failure is a
// violation of the program's I/O specification, expressed here as a
// predicate over a finished run that also yields a failure signature (the
// information a bug report or core dump would carry). A root cause is the
// negation of the predicate a fix would enforce; since scenarios are built
// around previously-solved bugs (as in the paper's §4 case study), each
// scenario declares the full set of root-cause predicates that can explain
// its failure, and evaluation checks which of them actually occurred in a
// given execution.
package scenario

import (
	"fmt"
	"sort"

	"debugdet/internal/plane"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// Params are scenario parameters (sizes, client counts, toggles).
type Params map[string]int64

// Get returns the parameter or a default.
func (p Params) Get(key string, def int64) int64 {
	if v, ok := p[key]; ok {
		return v
	}
	return def
}

// Clone returns an independent copy with overrides applied.
func (p Params) Clone(overrides Params) Params {
	c := make(Params, len(p)+len(overrides))
	for k, v := range p {
		c[k] = v
	}
	for k, v := range overrides {
		c[k] = v
	}
	return c
}

// String renders parameters deterministically (sorted keys).
func (p Params) String() string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("%s=%d", k, p[k])
	}
	return s
}

// RunView is what predicates and analyses see of a finished execution: the
// machine (for object names and final state), the result, and the oracle
// trace.
type RunView struct {
	Machine *vm.Machine
	Result  *vm.Result
	Trace   *trace.Log
}

// LastOutput returns the final value emitted on an output stream as an
// integer — how failure predicates read the totals a program reports at
// its end — or false when the run wrote nothing to the stream.
func (v *RunView) LastOutput(stream string) (int64, bool) {
	vals := v.Result.Outputs[stream]
	if len(vals) == 0 {
		return 0, false
	}
	return vals[len(vals)-1].AsInt(), true
}

// Failed reports whether the scenario's failure specification holds,
// delegating to the owning scenario.
type FailureSpec struct {
	// Name is a short identifier, e.g. "dataloss".
	Name string
	// Check inspects a finished run. failed reports whether the failure
	// occurred; signature is the failure class identity (what a bug
	// report would contain: same signature = same failure). The
	// signature must be "" when failed is false. A search calls it on
	// candidates it may reject, whose trace array the next candidate
	// reuses: Check must not retain v or its trace.
	Check func(v *RunView) (failed bool, signature string)
}

// RootCause is one possible explanation for the scenario's failure,
// expressed as a predicate over an execution (§3: the negation of the
// fix's predicate P held during the run).
type RootCause struct {
	// ID is a short stable identifier, e.g. "migration-race".
	ID string
	// Description explains the cause in the terms a developer would use.
	Description string
	// Present reports whether this root cause occurred in the run. Like
	// FailureSpec.Check it sees search candidates: it must not retain v
	// or its trace.
	Present func(v *RunView) bool
}

// InputDomain declares the value space of one environment stream, for the
// inference engine to search over when the stream's values were not
// recorded. Integer domains draw uniformly from [Min, Max].
type InputDomain struct {
	Stream string
	Min    int64
	Max    int64
}

// Scenario is one reproducible buggy program.
type Scenario struct {
	// Name identifies the scenario in catalogs and logs.
	Name string
	// Description is a one-paragraph summary (what the bug is, where it
	// comes from in the paper).
	Description string
	// DefaultParams are the parameters experiments use unless overridden.
	DefaultParams Params
	// DefaultSeed is a scheduler seed known to manifest the failure.
	DefaultSeed int64
	// Build constructs the program on a fresh machine and returns the
	// main thread body. Object and site registration must be
	// deterministic.
	Build func(m *vm.Machine, p Params) func(*vm.Thread)
	// Inputs returns the production environment for a seed: the input
	// source the original execution consumed. Replay-time machinery must
	// NOT call this — production inputs are not replayable from a seed;
	// the seed stands in for the outside world. Inference uses
	// SearchInputs instead.
	Inputs func(seed int64, p Params) vm.InputSource
	// SearchInputs returns an input source that samples the scenario's
	// input domains, for inference-based replay. Nil means inputs are
	// drawn uniformly from InputDomains via vm.SeededInputs-style
	// hashing.
	SearchInputs func(searchSeed int64, p Params) vm.InputSource
	// InputDomains declare per-stream search spaces (used when
	// SearchInputs is nil, and by documentation).
	InputDomains []InputDomain
	// Failure is the scenario's failure specification.
	Failure FailureSpec
	// RootCauses enumerates the possible root causes for the failure, in
	// a stable order. Debugging fidelity's 1/n uses n = len(RootCauses).
	RootCauses []RootCause
	// PlaneTruth is the ground-truth control/data classification of the
	// scenario's sites (by name), for evaluating the plane classifier.
	PlaneTruth map[string]plane.Plane
	// ControlStreams names the input streams whose values RCSE records
	// (control-plane inputs); all other streams are data-plane and are
	// re-drawn from the search domain at replay time. Only the recorder
	// reads it: a replay forces what the recording holds.
	ControlStreams []string
	// Stats optionally renders a one-line run summary for CLI output;
	// RunStats falls back to a generic summary when nil.
	Stats func(v *RunView) string
}

// ExecOptions parameterizes one execution of a scenario.
type ExecOptions struct {
	// Seed is the scheduler seed (and, via Inputs, the environment
	// identity).
	Seed int64
	// Params override the scenario defaults (nil keeps them).
	Params Params
	// Scheduler overrides the default seeded-random scheduler.
	Scheduler vm.Scheduler
	// Inputs overrides the scenario's production input source. Replay
	// and inference always set this.
	Inputs vm.InputSource
	// ObserverFactory constructs the run's observers (recorders,
	// monitors, detectors, checkpoint writers) against its machine just
	// before execution.
	ObserverFactory func(*vm.Machine) []vm.Observer
	// MaxSteps bounds the execution (0 = VM default).
	MaxSteps uint64
	// DisableTrace turns off oracle-trace collection (only
	// micro-benchmarks set it).
	DisableTrace bool
	// RelaxTime lifts time gates on sleeps and timeouts, required when a
	// complete recorded schedule is being forced (see vm.Config.RelaxTime).
	RelaxTime bool
	// LogRounds keeps the machine's scheduling-round log (see
	// vm.Config.LogRounds) — pure observation, read back through
	// RunView.Machine.Rounds(). Equivalence-pruned search sets it on the
	// executions it retains to prune candidates against.
	LogRounds bool
}

// Exec (with ExecInto), Start and Restore are the launcher: the one place
// outside the vm package that assembles a vm.Config, builds the scenario's
// program on a machine, attaches observers and starts it. Every recorder,
// replayer and search in the repository launches its machines through one
// of the three.

// config resolves the options into the machine configuration and the
// effective build parameters.
func (s *Scenario) config(o ExecOptions) (vm.Config, Params) {
	p := s.DefaultParams.Clone(o.Params)
	inputs := o.Inputs
	if inputs == nil {
		inputs = s.Inputs(o.Seed, p)
	}
	return vm.Config{
		Seed:         o.Seed,
		Scheduler:    o.Scheduler,
		Inputs:       inputs,
		MaxSteps:     o.MaxSteps,
		CollectTrace: !o.DisableTrace,
		RelaxTime:    o.RelaxTime,
		LogRounds:    o.LogRounds,
	}, p
}

// attach registers the options' observers on a built machine.
func (o ExecOptions) attach(m *vm.Machine) {
	if o.ObserverFactory != nil {
		for _, obs := range o.ObserverFactory(m) {
			m.Attach(obs)
		}
	}
}

// start is Start on dead's tables (see vm.Recycle; nil is a fresh
// machine), handing Exec the effective parameters for its trace header.
func (s *Scenario) start(o ExecOptions, dead *vm.Machine) (*vm.Machine, Params) {
	cfg, p := s.config(o)
	m := vm.Recycle(dead, cfg)
	main := s.Build(m, p)
	o.attach(m)
	m.Start(main)
	return m, p
}

// Start builds the scenario on a fresh machine and starts it paused before
// its first event: drive it with Machine.Continue and end it with
// Machine.Finish (which an abandoned machine needs too, to release its
// threads). Seek sessions and the debugger replay on such machines.
func (s *Scenario) Start(o ExecOptions) *vm.Machine {
	m, _ := s.start(o, nil)
	return m
}

// Restore builds the scenario on a machine resumed at snap — paused at
// snap.Seq, its threads repositioned by replaying feeds (see vm.Restore) —
// and attaches the observers to it afterwards, so they see only the
// events from the snapshot on. o.Scheduler must stand at snap.SchedPos.
func (s *Scenario) Restore(o ExecOptions, snap *vm.Snapshot, feeds [][]vm.FeedEntry) (*vm.Machine, error) {
	cfg, p := s.config(o)
	m, err := vm.Restore(cfg, func(m *vm.Machine) func(*vm.Thread) { return s.Build(m, p) }, snap, feeds)
	if err != nil {
		return nil, err
	}
	o.attach(m)
	return m, nil
}

// Exec builds and runs the scenario once, returning the finished view.
func (s *Scenario) Exec(o ExecOptions) *RunView { return ExecInto(s, o, nil) }

// ExecInto is Exec built into spare, a finished traced view nothing reads
// any more (a search's rejected candidate): the run reuses spare's machine
// tables (vm.Recycle) and appends its trace into spare's event array,
// which the view's trace may outgrow. A nil spare is Exec.
func ExecInto(s *Scenario, o ExecOptions, spare *RunView) *RunView {
	var dead *vm.Machine
	var events []trace.Event
	if spare != nil {
		dead, events = spare.Machine, spare.Trace.Events
	}
	m, p := s.start(o, dead)
	if tr := m.Trace(); tr != nil {
		tr.Events = events[:0]
	}
	m.Continue(0)
	res := m.Finish()
	if res.Trace != nil {
		res.Trace.Header.Scenario = s.Name
		res.Trace.Header.Seed = o.Seed
		res.Trace.Header.Params = map[string]int64(p)
	}
	return &RunView{Machine: m, Result: res, Trace: res.Trace}
}

// RunStats renders the scenario's one-line run summary, falling back to a
// generic events/outcome line when the scenario declares none.
func (s *Scenario) RunStats(v *RunView) string {
	if s.Stats != nil {
		return s.Stats(v)
	}
	return fmt.Sprintf("events=%d cycles=%d outcome=%s",
		v.Result.Steps, v.Result.Cycles, v.Result.Outcome)
}

// CheckFailure evaluates the failure spec on a view.
func (s *Scenario) CheckFailure(v *RunView) (bool, string) {
	return s.Failure.Check(v)
}

// PresentCauses returns the IDs of the root causes present in the run, in
// declaration order.
func (s *Scenario) PresentCauses(v *RunView) []string {
	var out []string
	for _, rc := range s.RootCauses {
		if rc.Present(v) {
			out = append(out, rc.ID)
		}
	}
	return out
}

// DomainInputs builds the default search input source: every stream with a
// declared domain draws uniformly from it; undeclared streams draw small
// non-negative integers. Deterministic in (searchSeed, stream, index).
func (s *Scenario) DomainInputs(searchSeed int64) vm.InputSource {
	domains := make(map[string]InputDomain, len(s.InputDomains))
	for _, d := range s.InputDomains {
		domains[d.Stream] = d
	}
	return vm.InputSourceFunc(func(stream string, index int) trace.Value {
		h := vm.HashValue(searchSeed, stream, index)
		if d, ok := domains[stream]; ok && d.Max > d.Min {
			return trace.Int(d.Min + h%(d.Max-d.Min+1))
		}
		return trace.Int(h % 1024)
	})
}

// SearchSource resolves the scenario's search-input mechanism.
func (s *Scenario) SearchSource(searchSeed int64, p Params) vm.InputSource {
	if s.SearchInputs != nil {
		return s.SearchInputs(searchSeed, p)
	}
	return s.DomainInputs(searchSeed)
}

// Package vm implements a deterministic virtual machine for multi-threaded
// programs: the execution substrate on which all determinism models in this
// repository are built.
//
// Programs are Go functions written against the Thread API. Every
// shared-state operation (memory access, lock, channel op, input, output)
// is a VM operation and a scheduling point. Exactly one virtual thread runs
// between scheduling points — threads are coroutines (iter.Pull) of the
// goroutine that drives the machine, which switches to one at a time — so
// given a scheduler seed and an input source the execution, and hence its
// event trace, is bit-identical across runs. That property is what
// record/replay needs and what the Go runtime scheduler cannot provide (see
// DESIGN.md §1).
package vm

import (
	"fmt"

	"debugdet/internal/trace"
)

// Outcome classifies how an execution ended.
type Outcome uint8

// Outcomes.
const (
	OutcomeOK       Outcome = iota // all threads exited normally
	OutcomeFailed                  // a thread reported a failure (EvFail)
	OutcomeCrashed                 // a thread crashed (EvCrash)
	OutcomeDeadlock                // no thread runnable, none sleeping
	OutcomeDiverged                // replay scheduler could not follow its log
	OutcomeAborted                 // step limit exceeded
)

var outcomeNames = [...]string{"ok", "failed", "crashed", "deadlock", "diverged", "aborted"}

// String returns the lower-case outcome name.
func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return fmt.Sprintf("outcome(%d)", uint8(o))
}

// Config parameterizes a Machine.
type Config struct {
	// Seed drives the scheduler's randomness (for seeded schedulers).
	Seed int64
	// Scheduler picks the next thread; nil means NewRandomScheduler(Seed).
	Scheduler Scheduler
	// Inputs supplies environment values; nil means ZeroInputs.
	Inputs InputSource
	// Cost is the virtual-cycle cost model; the zero value is replaced by
	// DefaultCostModel.
	Cost CostModel
	// MaxSteps aborts runaway executions; 0 means the default (4M events).
	MaxSteps uint64
	// CollectTrace controls whether the machine keeps the full oracle
	// trace of the run. Evaluation needs it; pure recording-throughput
	// benchmarks can disable it.
	CollectTrace bool
	// RelaxTime makes time-gated operations (sleep, receive timeouts)
	// always schedulable. Schedule-forcing replay sets it: the recorded
	// decision order, not the virtual clock, determines when sleepers
	// resume, so replays whose clocks differ from the original (recording
	// overhead is absent) still follow the schedule without spurious
	// divergence. Results stay consistent because timeout branches
	// depend on channel state, which evolves identically under the
	// forced schedule.
	RelaxTime bool
	// disableInline turns off the inline run-to-next-schedule-point fast
	// path: every operation is a coroutine switch to the driver and back.
	// The fast path is bit-equivalent to switching at every op; the switch
	// is unexported because its one use is the package's own tests, which
	// pin that equivalence.
	disableInline bool
	// LogRounds makes the machine keep a log of every scheduling decision
	// — (seq, enabled set, pick) per round; see SchedRound — readable via
	// Rounds. Pure observation: the log perturbs neither the execution
	// nor its virtual clock. Equivalence-pruned search enables it on the
	// executions it retains to prune candidates against.
	LogRounds bool
}

// Result describes a finished execution.
type Result struct {
	Outcome  Outcome
	Terminal trace.Event // the terminal event when Outcome != OutcomeOK
	// Trace is the full oracle trace (nil when Config.CollectTrace was
	// false). This is the evaluation's omniscient view; recorders keep
	// their own, possibly sparser, logs.
	Trace *trace.Log
	// Steps is the number of events applied.
	Steps uint64
	// Cycles is the execution's intrinsic virtual time (recording cost
	// excluded — see RecordCycles).
	Cycles uint64
	// RecordCycles is the virtual time observers charged for recording
	// work. It is accounted separately rather than added to the clock,
	// so attaching a recorder never perturbs the execution: every
	// model's recording is a projection of one production run (see
	// record.Project), and timeout behaviour is probe-effect free. Total
	// production time is Cycles + RecordCycles.
	RecordCycles uint64
	// Outputs are the per-stream output sequences.
	Outputs map[string][]trace.Value
	// InputsUsed are the per-stream input sequences actually consumed.
	InputsUsed map[string][]trace.Value
	// DivergedAt holds the event index at which a replay scheduler
	// diverged, when Outcome == OutcomeDiverged.
	DivergedAt uint64
	// SchedRounds counts the scheduling rounds this machine took (times a
	// scheduler was asked to pick), SchedEvals the enabledness evaluations
	// it made for them and SchedHandoffs the rounds that switched to the
	// picked thread's coroutine instead of applying its op inline; a restored
	// machine counts from its restore point.
	SchedRounds, SchedEvals, SchedHandoffs uint64
}

// BaseCycles returns the execution's intrinsic virtual time.
func (r *Result) BaseCycles() uint64 { return r.Cycles }

// TotalCycles returns production time including recording work.
func (r *Result) TotalCycles() uint64 { return r.Cycles + r.RecordCycles }

// Overhead returns the runtime-overhead ratio (total / base). It is 1.0
// when nothing was recorded.
func (r *Result) Overhead() float64 {
	if r.Cycles == 0 {
		return 1
	}
	return float64(r.TotalCycles()) / float64(r.Cycles)
}

// Machine is one deterministic virtual machine instance. A machine is
// single-use: configure it, build the program's objects and threads, call
// Run once. A finished machine's tables may be handed on to the next one
// (Recycle) once nothing reads the machine any more.
type Machine struct {
	cfg   Config
	cost  CostModel
	sites *trace.SiteTable

	cells   []cellState
	cellIDs map[string]trace.ObjID
	mutexes []mutexState
	chans   []chanState
	streams []streamState
	disks   []diskState

	streamIDs map[string]trace.ObjID
	diskIDs   map[string]trace.ObjID

	threads       []*Thread
	live          int // threads not yet done
	liveNonDaemon int // non-daemon threads not yet done

	clock        uint64
	seq          uint64
	recordCycles uint64

	sched     Scheduler
	inputs    InputSource
	observers []Observer

	// current is the thread the driver last switched to: the only one whose
	// body can be running, so the only one whose ops are legitimate.
	current *Thread
	// inlineOwner is the thread currently holding the scheduling baton
	// inline (see syscall's fast path). While it is set the driver is
	// suspended in resume's switch, so only the owner's stack touches
	// machine state. Coroutine switches order all accesses.
	inlineOwner *Thread
	// picked carries a scheduling decision taken inline by a thread that
	// then had to hand the baton back (the scheduler chose someone else).
	// The machine loop consumes it instead of re-asking the scheduler,
	// so stateful schedulers see each decision exactly once.
	picked      *Thread
	pickedValid bool

	running   bool
	stopped   bool
	completed bool
	finished  bool
	// pauseAt makes the scheduling loop return to its driver once seq
	// reaches it (0 = run to completion). Both the machine loop and the
	// inline fast path honour it; see Continue.
	pauseAt  uint64
	outcome  Outcome
	terminal trace.Event
	diverged uint64

	tr *trace.Log

	// rounds is the scheduling-decision log (Config.LogRounds).
	rounds []SchedRound

	// The maintained enabled set (enabledset.go): ready is the ID-ordered
	// slice schedulers are handed, ran the thread whose op was applied last
	// (pickNext registers its next one), timed the list of threads parked on
	// a deadline, nextWake a lower bound on the earliest of those.
	ready    []*Thread
	ran      *Thread
	timed    *Thread
	nextWake uint64

	schedRounds, schedEvals, schedHandoffs uint64

	// evBuf is the event staging buffer emit reuses; without it every
	// event heap-escapes through the observer interface call.
	evBuf trace.Event
}

// New returns a machine with the given configuration.
func New(cfg Config) *Machine { return Recycle(nil, cfg) }

// Recycle is New built into the tables of dead, a finished machine that
// nothing reads any more: its name maps are cleared and its object
// tables, channel buffers and thread records cut to length zero, each
// slot overwritten before the next program reads it, so a search that
// discards candidates allocates them once per concurrent run. The machine
// returned is dead itself, reset; a nil or unfinished dead gives a fresh
// machine. Only the scenario launcher calls it.
func Recycle(dead *Machine, cfg Config) *Machine {
	if cfg.Scheduler == nil {
		cfg.Scheduler = NewRandomScheduler(cfg.Seed)
	}
	if cfg.Inputs == nil {
		cfg.Inputs = ZeroInputs
	}
	zero := CostModel{}
	if cfg.Cost == zero {
		cfg.Cost = DefaultCostModel()
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 4 << 20
	}
	m := dead
	if m == nil || !m.finished {
		m = &Machine{streamIDs: make(map[string]trace.ObjID), ready: make([]*Thread, 0, 8)}
	}
	clear(m.cellIDs)
	clear(m.streamIDs)
	*m = Machine{
		cfg:       cfg,
		cost:      cfg.Cost,
		sites:     trace.NewSiteTable(),
		cells:     m.cells[:0],
		cellIDs:   m.cellIDs,
		mutexes:   m.mutexes[:0],
		chans:     m.chans[:0],
		streams:   m.streams[:0],
		streamIDs: m.streamIDs,
		threads:   m.threads[:0],
		sched:     cfg.Scheduler,
		inputs:    cfg.Inputs,
		ready:     m.ready[:0],
		nextWake:  noWake,
	}
	if cfg.CollectTrace {
		m.tr = trace.NewLog(trace.Header{Seed: cfg.Seed})
		m.tr.Sites = m.sites
		// The trace is sized in Continue (see reserve), so an array the
		// launcher installs before the first Continue is used as it is.
	}
	return m
}

// Site registers (or looks up) a static program location by name.
func (m *Machine) Site(name string) trace.SiteID { return m.sites.Register(name) }

// Sites exposes the machine's site table (shared with the oracle trace).
func (m *Machine) Sites() *trace.SiteTable { return m.sites }

// Cost exposes the cost model, for recorders pricing their work.
func (m *Machine) Cost() *CostModel { return &m.cost }

// Clock returns the current virtual time.
func (m *Machine) Clock() uint64 { return m.clock }

// Seq returns the number of events applied so far.
func (m *Machine) Seq() uint64 { return m.seq }

// Seed returns the configured scheduler seed.
func (m *Machine) Seed() int64 { return m.cfg.Seed }

// Trace returns the oracle trace collected so far (nil when
// Config.CollectTrace is false). Read it only while the machine is paused
// or finished. Before the first Continue a launcher may install the array
// the run appends into: Trace().Events = spare[:0] (see reserve).
func (m *Machine) Trace() *trace.Log { return m.tr }

// Attach registers an observer. Observers run in attach order on every
// event.
func (m *Machine) Attach(o Observer) { m.observers = append(m.observers, o) }

func (m *Machine) checkSetup(op string) {
	if m.running {
		panic("vm: " + op + " called after Run started")
	}
}

// Run executes main as thread 0 and drives scheduling until all threads
// exit or a terminal event stops the machine. It must be called exactly
// once (and not combined with Start).
func (m *Machine) Run(main func(*Thread)) *Result {
	m.Start(main)
	m.Continue(0)
	return m.Finish()
}

// Start begins a pausable execution: thread 0 is launched and parked at
// its first operation, but no events are applied. Drive the execution with
// Continue and end it with Finish. Run is equivalent to Start, one
// Continue(0), Finish.
func (m *Machine) Start(main func(*Thread)) {
	if m.running {
		panic("vm: Start/Run called twice")
	}
	m.running = true
	root := m.newThread("main", main)
	m.startThread(root)
}

// Continue resumes a started (or restored) execution until the number of
// applied events reaches stopAt, then pauses with every thread parked at a
// scheduling point. stopAt == 0 means no limit: run to completion. It
// reports whether the execution is over — further Continues are no-ops
// once it returns true. A paused machine is quiescent and safe to inspect
// (Snapshot, Threads, CellValue, ...).
func (m *Machine) Continue(stopAt uint64) bool {
	if !m.running {
		panic("vm: Continue before Start")
	}
	if m.completed || m.finished {
		return true
	}
	m.reserve(stopAt)
	m.pauseAt = stopAt
	m.loop()
	m.pauseAt = 0
	return m.completed
}

// reserve sizes the trace before the machine steps, the one place a trace
// is sized ahead of its events. Under a strict replay schedule (no
// Fallback) each remaining decision is one event to append, up to stopAt,
// so the trace is allocated at that length once rather than grown toward
// it; a run that outlives its schedule (the unique-continuation rule)
// grows as usual past the reservation. Any other run that has no trace
// capacity yet gets 1024 events, enough for a typical execution to append
// without growth reallocations; an installed array (a search reusing a
// rejected candidate's, see Trace) is used as it is.
func (m *Machine) reserve(stopAt uint64) {
	if m.tr == nil {
		return
	}
	rs, ok := m.sched.(*ReplayScheduler)
	if !ok || rs.Fallback != nil {
		if cap(m.tr.Events) == 0 {
			m.tr.Events = trace.Reserve(m.tr.Events, 1024)
		}
		return
	}
	n := uint64(len(rs.schedule) - rs.pos)
	if stopAt > 0 {
		n = min(n, stopAt-min(stopAt, m.seq))
	}
	m.tr.Events = trace.Reserve(m.tr.Events, int(n))
}

// Completed reports whether the execution is over (all threads exited or a
// terminal event stopped the machine).
func (m *Machine) Completed() bool { return m.completed }

// loop drives scheduling rounds until the execution completes or pauseAt
// is reached.
func (m *Machine) loop() {
	// A body's runtime.Goexit (or a panic outside any body) unwinds the
	// driver through here: end the other threads' coroutines on the way.
	unwinding := true
	defer func() {
		if unwinding {
			m.releaseAll()
		}
	}()
	for !m.stopped {
		if m.pauseAt > 0 && m.seq >= m.pauseAt {
			unwinding = false
			return
		}
		// A thread running inline may already have taken this round's
		// scheduling decision before handing the baton back; consume it
		// instead of consulting the scheduler twice.
		var t *Thread
		if m.pickedValid {
			t, m.picked, m.pickedValid = m.picked, nil, false
		} else {
			t = m.pickNext()
		}
		if t == nil {
			break
		}
		m.applyOp(t)
		m.checkStepLimit()
		if m.stopped {
			break
		}
		m.resume(t)
	}
	m.completed, unwinding = true, false
}

// Finish ends the execution — releasing every parked thread, including
// daemons — and builds the Result. Finishing a paused execution abandons
// it: the outcome of an abandoned run is OutcomeAborted unless a terminal
// event already stopped the machine. Finish may be called once.
func (m *Machine) Finish() *Result {
	if m.finished {
		panic("vm: Finish called twice")
	}
	m.finished = true
	m.releaseAll()
	for _, o := range m.observers {
		if f, ok := o.(FinishObserver); ok {
			f.OnFinish(m.outcome)
		}
	}

	res := &Result{
		Outcome:       m.outcome,
		Terminal:      m.terminal,
		Trace:         m.tr,
		Steps:         m.seq,
		Cycles:        m.clock,
		RecordCycles:  m.recordCycles,
		Outputs:       make(map[string][]trace.Value),
		InputsUsed:    make(map[string][]trace.Value),
		DivergedAt:    m.diverged,
		SchedRounds:   m.schedRounds,
		SchedEvals:    m.schedEvals,
		SchedHandoffs: m.schedHandoffs,
	}
	for i := range m.streams {
		s := &m.streams[i]
		if len(s.outputs) > 0 {
			res.Outputs[s.name] = s.outputs
		}
		if len(s.inputs) > 0 {
			res.InputsUsed[s.name] = s.inputs
		}
	}
	return res
}

// pickNext selects the next thread to run among those whose pending op is
// enabled, advancing virtual time over sleep gaps. It returns nil when the
// execution is over (all threads done) after recording a deadlock if
// threads remain blocked forever.
func (m *Machine) pickNext() *Thread {
	for {
		if m.liveNonDaemon == 0 {
			// The program proper has finished; daemons (network pumps,
			// server loops) do not keep the machine alive.
			return nil
		}
		if m.ran != nil { // register the op the last thread to run parked on
			m.park(m.ran)
			m.ran = nil
		}
		if m.clock >= m.nextWake {
			m.wakeTimed()
		}
		if roundHook != nil {
			roundHook(m)
		}
		if len(m.ready) > 0 {
			m.schedRounds++
			t := m.sched.Pick(m, m.ready)
			if t == nil {
				// Replay scheduler exhausted or diverged.
				m.stop(OutcomeDiverged, trace.Event{
					Seq: m.seq, Time: m.clock, Kind: trace.EvCrash,
					Val: trace.Str("schedule divergence"),
				})
				m.diverged = m.seq
				return nil
			}
			if m.cfg.LogRounds {
				m.logRound(m.ready, t)
			}
			return t
		}
		// No thread enabled: advance time to the earliest deadline a thread
		// is parked on (the walk makes nextWake exact), or we are deadlocked.
		if m.wakeTimed(); m.nextWake == noWake {
			m.emitMachineEvent(trace.EvDeadlock, trace.Str(m.blockedSummary()))
			m.stop(OutcomeDeadlock, m.terminalFromLast())
			return nil
		}
		m.clock = m.nextWake
	}
}

// roundHook, which only tests set, sees every scheduling round once the
// ready slice is up to date.
var roundHook func(*Machine)

func (m *Machine) terminalFromLast() trace.Event {
	if m.tr != nil && len(m.tr.Events) > 0 {
		return m.tr.Events[len(m.tr.Events)-1]
	}
	return trace.Event{Seq: m.seq, Time: m.clock, Kind: trace.EvDeadlock}
}

// enabled reports whether t's pending operation can be applied now.
func (m *Machine) enabled(t *Thread) bool {
	req := &t.pending
	switch req.code {
	case opLock:
		return m.mutexes[req.obj].owner == -1
	case opSend:
		return !m.chans[req.obj].full()
	case opRecv:
		return !m.chans[req.obj].empty()
	case opSleep:
		return m.cfg.RelaxTime || m.clock >= req.deadline
	case opRecvTimeout:
		return m.cfg.RelaxTime || !m.chans[req.obj].empty() || m.clock >= req.deadline
	//lint:exhaustive-default every op without a listed wait condition is always eligible to apply
	default:
		return true
	}
}

// blockedSummary describes what each blocked thread is waiting on, for
// deadlock diagnostics.
func (m *Machine) blockedSummary() string {
	s := ""
	for _, t := range m.threads {
		if t.done {
			continue
		}
		if s != "" {
			s += "; "
		}
		switch t.pending.code {
		case opLock:
			s += fmt.Sprintf("%s waits lock %s", t.name, m.MutexName(t.pending.obj))
		case opSend:
			s += fmt.Sprintf("%s waits send %s", t.name, m.ChanName(t.pending.obj))
		case opRecv:
			s += fmt.Sprintf("%s waits recv %s", t.name, m.ChanName(t.pending.obj))
		//lint:exhaustive-default deadlock report names the three blocking ops; anything else prints its raw code
		default:
			s += fmt.Sprintf("%s waits %d", t.name, t.pending.code)
		}
	}
	return s
}

// emit finalizes an event: assigns sequence and time, charges base cost,
// appends to the oracle trace, and routes it through observers, charging
// their recording cost. The event is staged in a per-machine buffer
// (observers must copy, not retain, the pointer they receive — see
// Observer) so the hot loop performs no per-event allocation.
func (m *Machine) emit(t *Thread, kind trace.EventKind, site trace.SiteID, obj trace.ObjID, val trace.Value, taint trace.Taint) {
	m.clock += m.cost.opCost(kind, val.Size())
	m.evBuf = trace.Event{
		Seq:   m.seq,
		Time:  m.clock,
		TID:   t.id,
		Kind:  kind,
		Site:  site,
		Obj:   obj,
		Val:   val,
		Taint: taint,
	}
	m.seq++
	if m.tr != nil {
		m.tr.Append(m.evBuf)
	}
	for _, o := range m.observers {
		rc := o.OnEvent(&m.evBuf)
		m.recordCycles += rc
	}
	if kind.IsTerminal() {
		var oc Outcome
		//lint:exhaustive-default guarded by IsTerminal: the only terminal kinds are fail, crash and deadlock
		switch kind {
		case trace.EvFail:
			oc = OutcomeFailed
		case trace.EvCrash:
			oc = OutcomeCrashed
		default:
			oc = OutcomeDeadlock
		}
		m.stop(oc, m.evBuf)
	}
}

// emitMachineEvent emits an event attributed to the machine itself (thread
// -1), used for deadlock reporting.
func (m *Machine) emitMachineEvent(kind trace.EventKind, val trace.Value) {
	m.clock += m.cost.opCost(kind, val.Size())
	m.evBuf = trace.Event{
		Seq:  m.seq,
		Time: m.clock,
		TID:  -1,
		Kind: kind,
		Val:  val,
	}
	m.seq++
	if m.tr != nil {
		m.tr.Append(m.evBuf)
	}
	for _, o := range m.observers {
		rc := o.OnEvent(&m.evBuf)
		m.recordCycles += rc
	}
	m.terminal = m.evBuf
}

// checkStepLimit aborts a runaway execution. It runs after every applied
// op, on both the machine loop and the inline fast path — a single
// implementation, because the two paths must emit the identical abort
// event for the bit-equivalence contract to hold.
func (m *Machine) checkStepLimit() {
	if m.seq >= m.cfg.MaxSteps && !m.stopped {
		m.stop(OutcomeAborted, trace.Event{
			Seq: m.seq, Time: m.clock, Kind: trace.EvCrash,
			Val: trace.Str("step limit exceeded"),
		})
	}
}

// stop halts scheduling. Parked threads are released by releaseAll.
func (m *Machine) stop(oc Outcome, term trace.Event) {
	if m.stopped {
		return
	}
	m.stopped = true
	m.outcome = oc
	m.terminal = term
}

// releaseAll resumes every live thread so its coroutine can unwind; the
// syscall path panics with errMachineStopped which threadMain swallows.
func (m *Machine) releaseAll() {
	m.stopped = true
	if m.outcome == OutcomeOK && m.liveNonDaemon > 0 {
		// Live non-daemon threads with an OK outcome means the run was
		// abandoned mid-execution (Finish on a paused machine). Live
		// daemons at completion are normal (network pumps, server loops).
		m.outcome = OutcomeAborted
	}
	for _, t := range m.threads {
		if !t.done {
			t.done = true
			m.live--
			m.switchTo(t)
		}
	}
}

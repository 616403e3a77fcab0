package sim

import (
	"debugdet/internal/vm"
	"debugdet/trace"
)

// Machine is one deterministic virtual machine instance. Scenario build
// functions receive a fresh machine, register objects and sites on it, and
// return the main thread body.
type Machine = vm.Machine

// Config parameterizes a Machine.
type Config = vm.Config

// New builds a machine. Most users never call this directly — the scenario
// contract (scen.Scenario.Exec) builds machines — but analysis passes and
// tests can drive one by hand.
func New(cfg Config) *Machine { return vm.New(cfg) }

// Thread is a virtual thread: the handle workload code uses for every
// interposed operation (Load/Store/Lock/Send/Recv/Input/Output/Spawn/...).
type Thread = vm.Thread

// Result describes a finished execution.
type Result = vm.Result

// Outcome classifies how an execution ended.
type Outcome = vm.Outcome

// Outcomes.
const (
	OutcomeOK       = vm.OutcomeOK       // all threads exited normally
	OutcomeFailed   = vm.OutcomeFailed   // a thread reported a failure
	OutcomeCrashed  = vm.OutcomeCrashed  // a thread crashed
	OutcomeDeadlock = vm.OutcomeDeadlock // no thread runnable, none sleeping
	OutcomeDiverged = vm.OutcomeDiverged // replay scheduler could not follow its log
	OutcomeAborted  = vm.OutcomeAborted  // step limit exceeded
)

// Scheduler picks the next thread at every scheduling point.
type Scheduler = vm.Scheduler

// Stock schedulers.
type (
	// RoundRobinScheduler cycles through enabled threads.
	RoundRobinScheduler = vm.RoundRobinScheduler
	// RandomScheduler picks uniformly from a seed.
	RandomScheduler = vm.RandomScheduler
	// PCTScheduler implements probabilistic concurrency testing:
	// priority-based scheduling with seeded change points.
	PCTScheduler = vm.PCTScheduler
	// ReplayScheduler forces a complete recorded schedule.
	ReplayScheduler = vm.ReplayScheduler
)

// NewRoundRobinScheduler returns a round-robin scheduler.
func NewRoundRobinScheduler() *RoundRobinScheduler { return vm.NewRoundRobinScheduler() }

// NewRandomScheduler returns a seeded uniform-random scheduler.
func NewRandomScheduler(seed int64) *RandomScheduler { return vm.NewRandomScheduler(seed) }

// NewPCTScheduler returns a PCT scheduler with the given expected run
// length and number of priority change points.
func NewPCTScheduler(seed int64, expectedLen uint64, changePoints int) *PCTScheduler {
	return vm.NewPCTScheduler(seed, expectedLen, changePoints)
}

// NewReplayScheduler returns a scheduler that forces a recorded schedule.
func NewReplayScheduler(schedule []trace.ThreadID) *ReplayScheduler {
	return vm.NewReplayScheduler(schedule)
}

// Observer sees every event as it is emitted and returns the extra virtual
// cycles its processing costs (recorders, monitors, detectors).
type Observer = vm.Observer

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc = vm.ObserverFunc

// InputSource supplies environment values by (stream, index).
type InputSource = vm.InputSource

// InputSourceFunc adapts a function to the InputSource interface.
type InputSourceFunc = vm.InputSourceFunc

// MapInputs forces recorded per-stream values over a base source.
type MapInputs = vm.MapInputs

// ZeroInputs returns zero for every request.
var ZeroInputs = vm.ZeroInputs

// SeededInputs returns a deterministic hash-based input source drawing
// small non-negative integers below limit.
func SeededInputs(seed int64, limit int64) InputSource { return vm.SeededInputs(seed, limit) }

// HashValue is the deterministic (seed, stream, index) hash SeededInputs
// draws from, exposed for custom input sources.
func HashValue(seed int64, stream string, index int) int64 { return vm.HashValue(seed, stream, index) }

// CostModel assigns virtual-cycle costs to operations.
type CostModel = vm.CostModel

// DefaultCostModel returns the standard cost model.
func DefaultCostModel() CostModel { return vm.DefaultCostModel() }

// PendingOp describes the operation a thread will perform at its next
// scheduling point (for schedule-aware analyses).
type PendingOp = vm.PendingOp

// Snapshot machinery (time-travel replay; see DESIGN.md §5). Snapshots are
// deterministic captures of machine state at an event boundary: the
// substrate of checkpointed seek (Engine.Seek), segmented parallel replay
// (Engine.ReplaySegmented) and the interactive debugger (Engine.Debug).
type (
	// Snapshot is one deterministic VM state capture.
	Snapshot = vm.Snapshot
	// ThreadSnap is a snapshotted thread's metadata.
	ThreadSnap = vm.ThreadSnap
	// SlotSnap is a snapshotted value with its provenance.
	SlotSnap = vm.SlotSnap
	// ChanSnap is a snapshotted channel buffer.
	ChanSnap = vm.ChanSnap
	// StreamSnap is a snapshotted environment stream.
	StreamSnap = vm.StreamSnap
	// FeedEntry is one recorded operation outcome, consumed by Restore.
	FeedEntry = vm.FeedEntry
	// ThreadInfo describes one thread of a paused machine for inspection.
	ThreadInfo = vm.ThreadInfo
)

// NoRunningThread marks a snapshot taken on a paused machine, where every
// live thread is parked with a valid pending operation.
const NoRunningThread = vm.NoRunningThread

// Restore reconstructs a machine mid-execution from a snapshot plus the
// per-thread operation feeds derived from the recorded trace prefix. The
// returned machine is paused at the snapshot's event; drive it with
// Machine.Continue and Machine.Finish.
func Restore(cfg Config, setup func(*Machine) func(*Thread), snap *Snapshot, feeds [][]FeedEntry) (*Machine, error) {
	return vm.Restore(cfg, setup, snap, feeds)
}

// OpName renders a ThreadSnap.PendingCode as its operation name.
func OpName(code uint8) string { return vm.OpName(code) }

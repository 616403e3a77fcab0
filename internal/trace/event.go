// Package trace defines the execution-event model shared by the virtual
// machine, the recorders, the replayers and the analysis passes, together
// with a compact binary codec for persisting event logs.
//
// An execution of a program on the deterministic VM is fully described by
// the ordered sequence of events it emits: every scheduling point (memory
// access, synchronization operation, message send/receive, input, output)
// produces exactly one event. A log that contains every event therefore
// pins down the execution completely; the relaxed determinism models of the
// paper correspond to persisting progressively smaller projections of this
// sequence.
package trace

import "fmt"

// ThreadID identifies a virtual thread within one machine. The main thread
// is always 0; children are numbered in spawn order, which is deterministic.
type ThreadID int32

// SiteID identifies a static program location (an instrumentation site).
// Sites are registered by name in a SiteTable; IDs are dense indexes.
type SiteID uint32

// NoSite is the SiteID used for machine-internal events that have no
// corresponding program location.
const NoSite SiteID = 0

// ObjID identifies a dynamic object: a memory cell, mutex, channel or
// input/output stream, depending on the event kind. Object namespaces are
// independent per kind. Every ID is a dense index into its machine's table
// for the kind (a spawn's child thread ID is a non-negative int32), so 32
// bits hold them all; decoders reject a wider one (ReadObjID).
type ObjID uint32

// EventKind enumerates the observable operation classes of the VM.
type EventKind uint8

// Event kinds. The comment after each kind states what Obj and Val hold.
const (
	EvNone     EventKind = iota
	EvSpawn              // Obj: child ThreadID; Val: child name
	EvExit               // thread terminated normally
	EvLoad               // Obj: cell; Val: value read
	EvStore              // Obj: cell; Val: value written
	EvLock               // Obj: mutex
	EvUnlock             // Obj: mutex
	EvSend               // Obj: channel; Val: value sent
	EvRecv               // Obj: channel; Val: value received
	EvInput              // Obj: stream; Val: value obtained from environment
	EvOutput             // Obj: stream; Val: value emitted
	EvYield              // voluntary scheduling point
	EvSleep              // timed pause (duration is not part of the event)
	EvObserve            // Obj: probe id; Val: observed value (invariant probe)
	EvFail               // Val: failure message (program-detected failure)
	EvCrash              // Val: crash message (fault, e.g. bounds violation)
	EvDeadlock           // machine-detected deadlock (emitted on main thread)

	// Disk kinds (DESIGN.md §7): operations on a simulated durable device.
	// Like every other kind, Val is exactly the operation's result value, so
	// feed derivations and value replay treat disks uniformly with memory.
	EvDiskWrite   // Obj: disk; Val: record appended (bytes as persisted)
	EvDiskRead    // Obj: disk; Val: record read back (bytes, possibly torn)
	EvDiskFsync   // Obj: disk; Val: records made durable by this fsync
	EvDiskBarrier // Obj: disk; Val: records durable after the full barrier
	EvDiskCrash   // Obj: disk; Val: records surviving the crash (volatile tail dropped)

	kindCount
)

var kindNames = [...]string{
	EvNone:        "none",
	EvSpawn:       "spawn",
	EvExit:        "exit",
	EvLoad:        "load",
	EvStore:       "store",
	EvLock:        "lock",
	EvUnlock:      "unlock",
	EvSend:        "send",
	EvRecv:        "recv",
	EvInput:       "input",
	EvOutput:      "output",
	EvYield:       "yield",
	EvSleep:       "sleep",
	EvObserve:     "observe",
	EvFail:        "fail",
	EvCrash:       "crash",
	EvDeadlock:    "deadlock",
	EvDiskWrite:   "disk-write",
	EvDiskRead:    "disk-read",
	EvDiskFsync:   "disk-fsync",
	EvDiskBarrier: "disk-barrier",
	EvDiskCrash:   "disk-crash",
}

// String returns the lower-case name of the kind.
func (k EventKind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Valid reports whether the kind is one of the declared event kinds.
// Decoders use it to reject corrupt kind bytes instead of constructing
// events no replayer could interpret.
func (k EventKind) Valid() bool { return k < kindCount }

// IsTerminal reports whether the kind ends an execution abnormally.
func (k EventKind) IsTerminal() bool {
	return k == EvFail || k == EvCrash || k == EvDeadlock
}

// Taint is a small bit set describing the provenance of a value: which
// input classes it was (transitively) derived from. It powers the
// control/data-plane classifier.
type Taint uint8

// Taint bits.
const (
	TaintNone    Taint = 0
	TaintData    Taint = 1 << iota // derived from bulk data input (payloads)
	TaintControl                   // derived from control input (config, metadata)
	TaintEnv                       // derived from environment events (timers, faults)
)

// String renders the taint set compactly, e.g. "DC" or "-".
func (t Taint) String() string {
	if t == TaintNone {
		return "-"
	}
	s := ""
	if t&TaintData != 0 {
		s += "D"
	}
	if t&TaintControl != 0 {
		s += "C"
	}
	if t&TaintEnv != 0 {
		s += "E"
	}
	return s
}

// Event is one observable VM operation. Events are value types; logs are
// slices of events.
//
// The fields are ordered by alignment, widest first, so that an event
// carries no padding: a long run keeps millions of them, and every byte of
// an event is a byte per event of every trace and full recording.
// TestEventLayout pins the size; a new field goes where it packs.
type Event struct {
	Seq   uint64    // position in the global total order, starting at 0
	Time  uint64    // virtual time (cycles) at which the op completed
	Val   Value     // payload (see kind docs)
	Obj   ObjID     // object acted on (see kind docs)
	TID   ThreadID  // thread that performed the op
	Site  SiteID    // static program location, NoSite for machine events
	Kind  EventKind // operation class
	Taint Taint     // provenance of Val at the time of the op
}

// String renders a single event for debugging and test failure messages.
func (e Event) String() string {
	return fmt.Sprintf("#%d t=%d tid=%d %s site=%d obj=%d val=%s taint=%s",
		e.Seq, e.Time, e.TID, e.Kind, e.Site, e.Obj, e.Val, e.Taint)
}

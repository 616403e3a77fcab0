package trace

import (
	"io"

	itrace "debugdet/internal/trace"
)

// Identifier types.
type (
	// ThreadID identifies a virtual thread within one machine. The main
	// thread is always 0; children are numbered in spawn order.
	ThreadID = itrace.ThreadID
	// SiteID identifies a static program location (an instrumentation
	// site), registered by name in a SiteTable.
	SiteID = itrace.SiteID
	// ObjID identifies a dynamic object: a memory cell, mutex, channel or
	// input/output stream, depending on the event kind.
	ObjID = itrace.ObjID
)

// NoSite is the SiteID used for machine-internal events that have no
// corresponding program location.
const NoSite = itrace.NoSite

// EventKind enumerates the observable operation classes of the VM.
type EventKind = itrace.EventKind

// Event kinds. The comment after each kind states what Obj and Val hold.
const (
	EvNone     = itrace.EvNone
	EvSpawn    = itrace.EvSpawn    // Obj: child ThreadID; Val: child name
	EvExit     = itrace.EvExit     // thread terminated normally
	EvLoad     = itrace.EvLoad     // Obj: cell; Val: value read
	EvStore    = itrace.EvStore    // Obj: cell; Val: value written
	EvLock     = itrace.EvLock     // Obj: mutex
	EvUnlock   = itrace.EvUnlock   // Obj: mutex
	EvSend     = itrace.EvSend     // Obj: channel; Val: value sent
	EvRecv     = itrace.EvRecv     // Obj: channel; Val: value received
	EvInput    = itrace.EvInput    // Obj: stream; Val: value obtained from environment
	EvOutput   = itrace.EvOutput   // Obj: stream; Val: value emitted
	EvYield    = itrace.EvYield    // voluntary scheduling point
	EvSleep    = itrace.EvSleep    // timed pause
	EvObserve  = itrace.EvObserve  // Obj: probe id; Val: observed value
	EvFail     = itrace.EvFail     // Val: failure message (program-detected)
	EvCrash    = itrace.EvCrash    // Val: crash message (fault)
	EvDeadlock = itrace.EvDeadlock // machine-detected deadlock

	// Simulated-disk operations (DESIGN.md §7).
	EvDiskWrite   = itrace.EvDiskWrite   // Obj: disk; Val: record appended (volatile until fsync)
	EvDiskRead    = itrace.EvDiskRead    // Obj: disk; Val: record read (Nil past end of log)
	EvDiskFsync   = itrace.EvDiskFsync   // Obj: disk; Val: durable watermark after the fsync
	EvDiskBarrier = itrace.EvDiskBarrier // Obj: disk; Val: durable watermark (never reordered)
	EvDiskCrash   = itrace.EvDiskCrash   // Obj: disk; Val: records surviving the crash
)

// Taint is a small bit set describing the provenance of a value: which
// input classes it was (transitively) derived from.
type Taint = itrace.Taint

// Taint bits.
const (
	TaintNone    = itrace.TaintNone
	TaintData    = itrace.TaintData    // derived from bulk data input (payloads)
	TaintControl = itrace.TaintControl // derived from control input (config, metadata)
	TaintEnv     = itrace.TaintEnv     // derived from environment events (timers, faults)
)

// Event is one observable VM operation.
type Event = itrace.Event

// ValueKind discriminates Value payloads.
type ValueKind = itrace.ValueKind

// Value kinds.
const (
	VNil    = itrace.VNil
	VInt    = itrace.VInt
	VString = itrace.VString
	VBytes  = itrace.VBytes
)

// Value is the single dynamic value type of the VM: every cell, channel
// slot, input and output carries one.
type Value = itrace.Value

// Int builds an integer value.
func Int(v int64) Value { return itrace.Int(v) }

// Bool builds a boolean value (encoded as 0/1).
func Bool(v bool) Value { return itrace.Bool(v) }

// Str builds a string value.
func Str(s string) Value { return itrace.Str(s) }

// Bytes builds a byte-blob value from a copy of b: the caller may reuse
// b afterwards without changing the value, or anything that recorded it.
func Bytes(b []byte) Value { return itrace.Blob(string(b)) }

// SiteTable interns static program locations.
type SiteTable = itrace.SiteTable

// NewSiteTable returns an empty site table.
func NewSiteTable() *SiteTable { return itrace.NewSiteTable() }

// Header carries a log's run identity.
type Header = itrace.Header

// Log is an ordered event sequence with its header and site table.
type Log = itrace.Log

// NewLog returns an empty log with the given header.
func NewLog(h Header) *Log { return itrace.NewLog(h) }

// Encode writes the log in the compact binary format, returning the byte
// count.
func Encode(w io.Writer, l *Log) (int64, error) { return itrace.Encode(w, l) }

// Decode reads a log written by Encode.
func Decode(r io.Reader) (*Log, error) { return itrace.Decode(r) }

// EncodedSize returns the encoded byte count without writing.
func EncodedSize(l *Log) int64 { return itrace.EncodedSize(l) }

// WriteJSON writes the log as JSON, for external tooling.
func WriteJSON(w io.Writer, l *Log) error { return itrace.WriteJSON(w, l) }

// OutputsEqual reports whether two logs emitted the same output sequences.
func OutputsEqual(a, b *Log) bool { return itrace.OutputsEqual(a, b) }

// EventsEqual reports whether two logs contain the same events, optionally
// ignoring virtual timestamps.
func EventsEqual(a, b *Log, ignoreTime bool) bool { return itrace.EventsEqual(a, b, ignoreTime) }

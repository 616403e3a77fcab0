package vm

import "debugdet/internal/trace"

// This file implements the deterministic disk resource (DESIGN.md §7): a
// per-machine simulated durable device with an injectable fault plane.
//
// A disk is an append-only sequence of records with a durability watermark:
// records at index < durable survive a device crash, the volatile tail does
// not. Fsync advances the watermark to the end of the log; the fault plane
// can hold the newest record back at one chosen fsync (modelling a device
// queue that acknowledges a flush before draining it) and can leave a torn
// prefix of the first volatile record behind at crash time (modelling a
// sector-spanning write interrupted by power loss). A sync barrier
// (write-through flush + drain) always makes everything durable — it is the
// operation a correct program uses where a plain fsync is not enough.
//
// Every disk operation is an ordinary VM operation: a scheduling point that
// emits exactly one event whose Val equals the operation's result, so the
// checkpoint feed derivation, value replay and segmented validation treat
// disks uniformly with memory cells.

// DiskFaults configures a disk's injectable fault plane. The zero value is
// a fault-free device. Faults are program structure (fixed at build time),
// not environment input: a scenario that wants a searchable fault draws its
// trigger from an input stream and picks the disk accordingly.
type DiskFaults struct {
	// TornBytes, when > 0, arms the torn-write fault: at a crash,
	// the first un-fsynced record — if it is a bytes record — survives as a
	// prefix of at most TornBytes bytes instead of disappearing, and is
	// counted durable. This is the sector-granularity artifact a recovery
	// path must detect with a checksum; 0 disables tearing.
	TornBytes int
	// ReorderAt, when > 0, arms the fsync-reordering fault: the ReorderAt'th
	// fsync on this disk (1-based, counted over the device's lifetime,
	// crashes included) leaves the newest volatile record volatile while
	// flushing everything before it — the device acknowledged the flush with
	// the last write still in its queue. 0 disables reordering. DiskBarrier
	// is never reordered.
	ReorderAt int
}

// diskState is one simulated durable device. recs[0:durable] survives a
// DiskCrash; the tail is volatile. The record log is append-only between
// crashes.
type diskState struct {
	name    string
	recs    []slot
	durable int
	fsyncs  int
	faults  DiskFaults
}

// NewDisk registers a simulated disk with the given fault plane and returns
// its object ID. Disks must be created before Run.
func (m *Machine) NewDisk(name string, faults DiskFaults) trace.ObjID {
	m.checkSetup("NewDisk")
	id := trace.ObjID(len(m.disks))
	m.disks = append(m.disks, diskState{name: name, faults: faults})
	if m.diskIDs == nil {
		m.diskIDs = make(map[string]trace.ObjID)
	}
	m.diskIDs[name] = id
	return id
}

// DiskID resolves a disk by its registered name.
func (m *Machine) DiskID(name string) (trace.ObjID, bool) {
	id, ok := m.diskIDs[name]
	return id, ok
}

// DiskName returns the registered name of a disk.
func (m *Machine) DiskName(id trace.ObjID) string {
	if int(id) < len(m.disks) {
		return m.disks[id].name
	}
	return ""
}

// DiskLen returns the number of records on a disk, durable or not.
// Intended for inspection and post-run assertions; thread bodies must read
// disk state through Thread.DiskRead so restore-by-feed-replay stays sound.
func (m *Machine) DiskLen(id trace.ObjID) int {
	if int(id) < len(m.disks) {
		return len(m.disks[id].recs)
	}
	return 0
}

// DiskDurable returns a disk's durability watermark: how many records
// would survive a crash right now.
func (m *Machine) DiskDurable(id trace.ObjID) int {
	if int(id) < len(m.disks) {
		return m.disks[id].durable
	}
	return 0
}

// DiskRecords returns a disk's records, oldest first (volatile tail
// included). Like DiskLen it is an inspection accessor, not a thread API.
func (m *Machine) DiskRecords(id trace.ObjID) []trace.Value {
	if int(id) >= len(m.disks) {
		return nil
	}
	d := &m.disks[id]
	out := make([]trace.Value, len(d.recs))
	for i := range d.recs {
		out[i] = d.recs[i].val
	}
	return out
}

// crashKeep computes how many records survive a crash of d right now, and
// whether the first volatile record would survive torn. It is shared by the
// crash apply and its peek prediction, which must agree exactly.
func (d *diskState) crashKeep() (keep int, torn bool) {
	keep = d.durable
	if d.faults.TornBytes > 0 && keep < len(d.recs) && d.recs[keep].val.Kind == trace.VBytes {
		return keep + 1, true
	}
	return keep, false
}

// fsyncDurable computes the watermark an fsync would set if it were the
// n'th fsync on d (1-based). Shared by the fsync apply and its prediction.
func (d *diskState) fsyncDurable(n int) int {
	if d.faults.ReorderAt > 0 && n == d.faults.ReorderAt && d.durable < len(d.recs) {
		return len(d.recs) - 1
	}
	return len(d.recs)
}

package checkpoint

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"debugdet/internal/trace"
	"debugdet/internal/vm"
	"debugdet/internal/wire"
)

// The snapshot section ("DDCP"), embedded in .ddrc recordings and .ddseg
// segments, is laid out in DESIGN.md "Wire formats".

const snapMagic = "DDCP"

// ErrBadSnapshot reports a malformed snapshot section.
var ErrBadSnapshot = errors.New("checkpoint: malformed snapshot section")

// ErrRenamed reports snapshots that a section cannot hold: one names a
// thread or stream differently from its predecessor at an index both have.
var ErrRenamed = errors.New("checkpoint: snapshot renames a thread or stream of its predecessor")

// EncodeSnapshots writes the snapshot section (possibly empty) to w and
// returns the bytes written. Snapshots that fail CheckNames write nothing.
func EncodeSnapshots(w io.Writer, snaps []*vm.Snapshot) (int64, error) {
	if err := CheckNames(snaps); err != nil {
		return 0, err
	}
	ww := wire.NewWriter(w)
	WriteSnapshots(ww, snaps)
	return ww.Finish()
}

// WriteSnapshots writes the snapshot section as one section of a larger
// container. A snapshot writes only the thread and stream names its
// predecessor in the section did not have; the reader shares the
// predecessor's for the rest. So snaps must pass CheckNames, or a renamed
// entry is written under its predecessor's name.
func WriteSnapshots(w *wire.Writer, snaps []*vm.Snapshot) {
	w.Magic(snapMagic)
	w.Uvarint(uint64(len(snaps)))
	var prev *vm.Snapshot
	for _, s := range snaps {
		writeSnapshot(w, prev, s)
		prev = s
	}
}

// CheckNames returns an error wrapping ErrRenamed unless every snapshot
// names each thread and stream its predecessor has as the predecessor
// does. A machine's thread and stream IDs are dense and append-only and a
// name never changes, so only a hand-built table can fail.
func CheckNames(snaps []*vm.Snapshot) error {
	for i := 1; i < len(snaps); i++ {
		prev, s := snaps[i-1], snaps[i]
		for j := range min(len(prev.Threads), len(s.Threads)) {
			if s.Threads[j].Name != prev.Threads[j].Name {
				return fmt.Errorf("%w: snapshot %d names thread %d %q, its predecessor %q",
					ErrRenamed, i, j, s.Threads[j].Name, prev.Threads[j].Name)
			}
		}
		for j := range min(len(prev.Streams), len(s.Streams)) {
			if s.Streams[j].Name != prev.Streams[j].Name {
				return fmt.Errorf("%w: snapshot %d names stream %d %q, its predecessor %q",
					ErrRenamed, i, j, s.Streams[j].Name, prev.Streams[j].Name)
			}
		}
	}
	return nil
}

// SnapshotSize returns the encoded size of s written after prev in one
// section (prev nil: s standalone, as a segment holds it) — its body
// alone, without the section header WriteSnapshots writes once — so the
// capture cost model and Recording.CheckpointBytes sum to what the
// section actually stores for the snapshots.
func SnapshotSize(prev, s *vm.Snapshot) int64 {
	// Only the count matters: a small buffer spares a 4 KiB allocation
	// per sizing.
	w := wire.NewWriterSize(io.Discard, 256)
	writeSnapshot(w, prev, s)
	n, _ := w.Finish()
	return n
}

// inherited returns how many threads and streams prev hands its successor
// in a section, their names included (none for a nil prev).
func inherited(prev *vm.Snapshot) (threads, streams int) {
	if prev == nil {
		return 0, 0
	}
	return len(prev.Threads), len(prev.Streams)
}

func writeSnapshot(w *wire.Writer, prev, s *vm.Snapshot) {
	oldThreads, oldStreams := inherited(prev)
	w.Uvarint(s.Seq)
	w.Uvarint(s.Clock)
	w.Uvarint(s.RecordCycles)
	w.Uvarint(s.SchedPos)
	w.Uvarint(uint64(s.Live))
	w.Uvarint(uint64(s.LiveNonDaemon))

	w.Uvarint(uint64(len(s.Threads)))
	for i := range s.Threads {
		t := &s.Threads[i]
		if i >= oldThreads {
			w.String(t.Name)
		}
		var flags byte
		if t.Daemon {
			flags |= 1
		}
		if t.Done {
			flags |= 2
		}
		if t.PendingValid {
			flags |= 4
		}
		w.Byte(flags)
		w.Byte(byte(t.Taint))
		w.Byte(t.PendingCode)
		w.Uvarint(uint64(t.PendingObj))
		w.Uvarint(t.PendingDeadline)
	}

	writeSlots(w, s.Cells)

	w.Uvarint(uint64(len(s.Mutexes)))
	for _, owner := range s.Mutexes {
		w.Varint(int64(owner))
	}

	w.Uvarint(uint64(len(s.Chans)))
	for i := range s.Chans {
		writeSlots(w, s.Chans[i].Slots)
	}

	// Stream histories (consumed inputs, emitted outputs) are NOT
	// persisted: they are projections of the event prefix the recording
	// already stores in full, so the loader rehydrates them (see
	// RehydrateStreams). Persisting only the cursor keeps checkpoint
	// volume proportional to live state, not to trace length.
	w.Uvarint(uint64(len(s.Streams)))
	for i := range s.Streams {
		st := &s.Streams[i]
		if i >= oldStreams {
			w.String(st.Name)
		}
		w.Uvarint(uint64(st.InIndex))
	}

	// Disk records are live state, not a trace projection: the volatile
	// tail and the torn survivor of a crash exist nowhere in the event
	// stream, so the full log is persisted.
	w.Uvarint(uint64(len(s.Disks)))
	for i := range s.Disks {
		d := &s.Disks[i]
		writeSlots(w, d.Recs)
		w.Uvarint(uint64(d.Durable))
		w.Uvarint(uint64(d.Fsyncs))
	}
}

func writeSlots(w *wire.Writer, slots []vm.SlotSnap) {
	w.Uvarint(uint64(len(slots)))
	for i := range slots {
		trace.WriteValue(w, slots[i].Val)
		w.Byte(byte(slots[i].Taint))
	}
}

// DecodeSnapshots reads a snapshot section written by EncodeSnapshots, and
// everything else br holds: a bufio.Reader cannot tell its size, so it is
// read to its end (see wire.NewReader). Truncated or corrupt input returns
// an error wrapping ErrBadSnapshot; it never panics.
func DecodeSnapshots(br *bufio.Reader) ([]*vm.Snapshot, error) {
	r := wire.NewReader(br, ErrBadSnapshot)
	snaps, _ := ReadSnapshots(r)
	if err := r.Err(); err != nil {
		return nil, err
	}
	return snaps, nil
}

// ReadSnapshots reads a section written by WriteSnapshots and returns its
// snapshots and the bytes they occupy: the section without its magic and
// count, what SnapshotSize prices them at. The snapshots are only
// meaningful if r.Err() is nil afterwards. Each count's minimum element
// size is the element's fields at one byte apiece.
func ReadSnapshots(r *wire.Reader) (snaps []*vm.Snapshot, body int64) {
	r.Magic(snapMagic)
	n := r.Count("snapshots", 12)
	start := r.Offset()
	var prev *vm.Snapshot
	for i := 0; i < n && r.Err() == nil; i++ {
		prev = readSnapshot(r, prev)
		snaps = append(snaps, prev)
	}
	return snaps, r.Offset() - start
}

// tableCount reads the length of a thread or stream table whose entries
// are at least minBytes long with their name; the old entries, inherited
// from the predecessor, carry no name, not even its length byte.
func tableCount(r *wire.Reader, what string, old, minBytes int) int {
	if old > 0 {
		minBytes--
	}
	return r.Count(what, minBytes)
}

func readSnapshot(r *wire.Reader, prev *vm.Snapshot) *vm.Snapshot {
	oldThreads, oldStreams := inherited(prev)
	s := &vm.Snapshot{}
	s.Seq = r.Uvarint()
	s.Clock = r.Uvarint()
	s.RecordCycles = r.Uvarint()
	s.SchedPos = r.Uvarint()
	s.Live = r.Int("live threads", false)
	s.LiveNonDaemon = r.Int("live non-daemon threads", false)

	s.Threads = make([]vm.ThreadSnap, tableCount(r, "threads", oldThreads, 6))
	for i := range s.Threads {
		t := &s.Threads[i]
		if i < oldThreads {
			t.Name = prev.Threads[i].Name
		} else {
			t.Name = r.String()
		}
		flags := r.Byte()
		t.Daemon = flags&1 != 0
		t.Done = flags&2 != 0
		t.PendingValid = flags&4 != 0
		t.Taint = trace.Taint(r.Byte())
		t.PendingCode = r.Byte()
		t.PendingObj = trace.ReadObjID(r)
		t.PendingDeadline = r.Uvarint()
	}

	s.Cells = readSlots(r, "cells")

	s.Mutexes = make([]trace.ThreadID, r.Count("mutexes", 1))
	for i := range s.Mutexes {
		s.Mutexes[i] = trace.ThreadID(r.Int("mutex owner", true))
	}

	s.Chans = make([]vm.ChanSnap, r.Count("chans", 1))
	for i := range s.Chans {
		if slots := readSlots(r, "chan slots"); len(slots) > 0 {
			s.Chans[i].Slots = slots
		}
	}

	s.Streams = make([]vm.StreamSnap, tableCount(r, "streams", oldStreams, 2))
	for i := range s.Streams {
		if i < oldStreams {
			s.Streams[i].Name = prev.Streams[i].Name
		} else {
			s.Streams[i].Name = r.String()
		}
		s.Streams[i].InIndex = r.Int("stream input cursor", false)
	}

	s.Disks = make([]vm.DiskSnap, r.Count("disks", 3))
	for i := range s.Disks {
		d := &s.Disks[i]
		d.Recs = readSlots(r, "disk records")
		d.Durable = r.Int("durable disk records", false)
		d.Fsyncs = r.Int("disk fsyncs", false)
	}
	return s
}

func readSlots(r *wire.Reader, what string) []vm.SlotSnap {
	slots := make([]vm.SlotSnap, r.Count(what, 2))
	for i := range slots {
		slots[i].Val = trace.ReadValue(r)
		slots[i].Taint = trace.Taint(r.Byte())
	}
	return slots
}

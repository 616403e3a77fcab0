package checkpoint

import (
	"bufio"
	"errors"
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

// EncodeSnapshots writes the snapshot section (possibly empty) to w and
// returns the bytes written.
func EncodeSnapshots(w io.Writer, snaps []*vm.Snapshot) (int64, error) {
	ww := wire.NewWriter(w)
	WriteSnapshots(ww, snaps)
	return ww.Finish()
}

// WriteSnapshots writes the snapshot section as one section of a larger
// container.
func WriteSnapshots(w *wire.Writer, snaps []*vm.Snapshot) {
	w.Magic(snapMagic)
	w.Uvarint(uint64(len(snaps)))
	for _, s := range snaps {
		writeSnapshot(w, s)
	}
}

// SnapshotSize returns the encoded size of one snapshot — its body
// alone, without the section header EncodeSnapshots writes once per
// recording — so the capture cost model and Recording.CheckpointBytes
// sum to what the .ddrc section actually stores for the snapshots.
func SnapshotSize(s *vm.Snapshot) int64 {
	// Only the count matters: a small buffer spares a 4 KiB allocation
	// per sizing.
	w := wire.NewWriterSize(io.Discard, 256)
	writeSnapshot(w, s)
	n, _ := w.Finish()
	return n
}

func writeSnapshot(w *wire.Writer, s *vm.Snapshot) {
	w.Uvarint(s.Seq)
	w.Uvarint(s.Clock)
	w.Uvarint(s.RecordCycles)
	w.Uvarint(s.SchedPos)
	w.Uvarint(uint64(s.Live))
	w.Uvarint(uint64(s.LiveNonDaemon))

	w.Uvarint(uint64(len(s.Threads)))
	for i := range s.Threads {
		t := &s.Threads[i]
		w.String(t.Name)
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
		w.String(st.Name)
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
	snaps := ReadSnapshots(r)
	if err := r.Err(); err != nil {
		return nil, err
	}
	return snaps, nil
}

// ReadSnapshots reads a section written by WriteSnapshots. The snapshots
// are only meaningful if r.Err() is nil afterwards. Each count's minimum
// element size is the element's fields at one byte apiece.
func ReadSnapshots(r *wire.Reader) []*vm.Snapshot {
	r.Magic(snapMagic)
	n := r.Count("snapshots", 12)
	var snaps []*vm.Snapshot
	for i := 0; i < n && r.Err() == nil; i++ {
		snaps = append(snaps, readSnapshot(r))
	}
	return snaps
}

func readSnapshot(r *wire.Reader) *vm.Snapshot {
	s := &vm.Snapshot{}
	s.Seq = r.Uvarint()
	s.Clock = r.Uvarint()
	s.RecordCycles = r.Uvarint()
	s.SchedPos = r.Uvarint()
	s.Live = int(r.Uvarint())
	s.LiveNonDaemon = int(r.Uvarint())

	s.Threads = make([]vm.ThreadSnap, r.Count("threads", 6))
	for i := range s.Threads {
		t := &s.Threads[i]
		t.Name = r.String()
		flags := r.Byte()
		t.Daemon = flags&1 != 0
		t.Done = flags&2 != 0
		t.PendingValid = flags&4 != 0
		t.Taint = trace.Taint(r.Byte())
		t.PendingCode = r.Byte()
		t.PendingObj = trace.ObjID(r.Uvarint())
		t.PendingDeadline = r.Uvarint()
	}

	s.Cells = readSlots(r, "cells")

	s.Mutexes = make([]trace.ThreadID, r.Count("mutexes", 1))
	for i := range s.Mutexes {
		s.Mutexes[i] = trace.ThreadID(r.Varint())
	}

	s.Chans = make([]vm.ChanSnap, r.Count("chans", 1))
	for i := range s.Chans {
		if slots := readSlots(r, "chan slots"); len(slots) > 0 {
			s.Chans[i].Slots = slots
		}
	}

	s.Streams = make([]vm.StreamSnap, r.Count("streams", 2))
	for i := range s.Streams {
		s.Streams[i].Name = r.String()
		s.Streams[i].InIndex = int(r.Uvarint())
	}

	s.Disks = make([]vm.DiskSnap, r.Count("disks", 3))
	for i := range s.Disks {
		d := &s.Disks[i]
		d.Recs = readSlots(r, "disk records")
		d.Durable = int(r.Uvarint())
		d.Fsyncs = int(r.Uvarint())
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

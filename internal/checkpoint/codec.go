package checkpoint

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// Snapshot section binary format, embedded in .ddrc recordings (v2+):
//
//	magic   "DDCP" (4 bytes)
//	count   uvarint number of snapshots, then per snapshot:
//	        seq, clock, recordCycles, schedPos, live, liveNonDaemon uvarints
//	        threads: uvarint count, then name (string), flags u8
//	                 (daemon|done|pendingValid), taint u8, pendingCode u8,
//	                 pendingObj uvarint, pendingDeadline uvarint
//	        cells:   uvarint count, then value + taint u8
//	        mutexes: uvarint count, then owner (zigzag varint)
//	        chans:   uvarint count, then per chan uvarint slot count and
//	                 value + taint u8 slots
//	        streams: uvarint count, then name (string) and inIndex uvarint
//	                 (histories are rehydrated from the event prefix)
//	        disks:   uvarint count, then per disk uvarint record count and
//	                 value + taint u8 records, durable uvarint, fsyncs uvarint
//
// Values reuse the trace codec's encoding (trace.WriteValue/ReadValue).

const snapMagic = "DDCP"

// ErrBadSnapshot reports a malformed snapshot section.
var ErrBadSnapshot = errors.New("checkpoint: malformed snapshot section")

// implausible bounds a decoded count so corrupt input fails fast instead
// of allocating gigabytes.
const implausible = 1 << 28

// EncodeSnapshots writes the snapshot section (possibly empty) to w and
// returns the bytes written.
func EncodeSnapshots(w io.Writer, snaps []*vm.Snapshot) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	bw.WriteString(snapMagic)
	writeUvarint(bw, uint64(len(snaps)))
	for _, s := range snaps {
		encodeSnapshot(bw, s)
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// SnapshotSize returns the encoded size of one snapshot — its body
// alone, without the section header EncodeSnapshots writes once per
// recording — so the capture cost model and Recording.CheckpointBytes
// sum to what the .ddrc section actually stores for the snapshots.
func SnapshotSize(s *vm.Snapshot) int64 {
	cw := &countingWriter{w: io.Discard}
	bw := bufio.NewWriter(cw)
	encodeSnapshot(bw, s)
	bw.Flush()
	return cw.n
}

func encodeSnapshot(bw *bufio.Writer, s *vm.Snapshot) {
	writeUvarint(bw, s.Seq)
	writeUvarint(bw, s.Clock)
	writeUvarint(bw, s.RecordCycles)
	writeUvarint(bw, s.SchedPos)
	writeUvarint(bw, uint64(s.Live))
	writeUvarint(bw, uint64(s.LiveNonDaemon))

	writeUvarint(bw, uint64(len(s.Threads)))
	for i := range s.Threads {
		t := &s.Threads[i]
		writeString(bw, t.Name)
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
		bw.WriteByte(flags)
		bw.WriteByte(byte(t.Taint))
		bw.WriteByte(t.PendingCode)
		writeUvarint(bw, uint64(t.PendingObj))
		writeUvarint(bw, t.PendingDeadline)
	}

	writeUvarint(bw, uint64(len(s.Cells)))
	for i := range s.Cells {
		trace.WriteValue(bw, s.Cells[i].Val)
		bw.WriteByte(byte(s.Cells[i].Taint))
	}

	writeUvarint(bw, uint64(len(s.Mutexes)))
	for _, owner := range s.Mutexes {
		writeVarint(bw, int64(owner))
	}

	writeUvarint(bw, uint64(len(s.Chans)))
	for i := range s.Chans {
		slots := s.Chans[i].Slots
		writeUvarint(bw, uint64(len(slots)))
		for _, sl := range slots {
			trace.WriteValue(bw, sl.Val)
			bw.WriteByte(byte(sl.Taint))
		}
	}

	// Stream histories (consumed inputs, emitted outputs) are NOT
	// persisted: they are projections of the event prefix the recording
	// already stores in full, so the loader rehydrates them (see
	// RehydrateStreams). Persisting only the cursor keeps checkpoint
	// volume proportional to live state, not to trace length.
	writeUvarint(bw, uint64(len(s.Streams)))
	for i := range s.Streams {
		st := &s.Streams[i]
		writeString(bw, st.Name)
		writeUvarint(bw, uint64(st.InIndex))
	}

	// Disk records are live state, not a trace projection: the volatile
	// tail and the torn survivor of a crash exist nowhere in the event
	// stream, so the full log is persisted.
	writeUvarint(bw, uint64(len(s.Disks)))
	for i := range s.Disks {
		d := &s.Disks[i]
		writeUvarint(bw, uint64(len(d.Recs)))
		for _, sl := range d.Recs {
			trace.WriteValue(bw, sl.Val)
			bw.WriteByte(byte(sl.Taint))
		}
		writeUvarint(bw, uint64(d.Durable))
		writeUvarint(bw, uint64(d.Fsyncs))
	}
}

// DecodeSnapshots reads a snapshot section written by EncodeSnapshots.
// Truncated or corrupt input returns an error wrapping ErrBadSnapshot;
// it never panics.
func DecodeSnapshots(br *bufio.Reader) ([]*vm.Snapshot, error) {
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: magic: %v", ErrBadSnapshot, err)
	}
	if string(magic) != snapMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadSnapshot, magic)
	}
	count, err := readUvarint(br)
	if err != nil {
		return nil, err
	}
	if count > implausible {
		return nil, fmt.Errorf("%w: implausible snapshot count %d", ErrBadSnapshot, count)
	}
	var snaps []*vm.Snapshot
	for i := uint64(0); i < count; i++ {
		s, err := decodeSnapshot(br)
		if err != nil {
			return nil, fmt.Errorf("snapshot %d: %w", i, err)
		}
		snaps = append(snaps, s)
	}
	return snaps, nil
}

func decodeSnapshot(br *bufio.Reader) (*vm.Snapshot, error) {
	s := &vm.Snapshot{}
	var err error
	if s.Seq, err = readUvarint(br); err != nil {
		return nil, err
	}
	if s.Clock, err = readUvarint(br); err != nil {
		return nil, err
	}
	if s.RecordCycles, err = readUvarint(br); err != nil {
		return nil, err
	}
	if s.SchedPos, err = readUvarint(br); err != nil {
		return nil, err
	}
	live, err := readUvarint(br)
	if err != nil {
		return nil, err
	}
	liveND, err := readUvarint(br)
	if err != nil {
		return nil, err
	}
	s.Live, s.LiveNonDaemon = int(live), int(liveND)

	n, err := readCount(br, "threads")
	if err != nil {
		return nil, err
	}
	s.Threads = make([]vm.ThreadSnap, n)
	for i := range s.Threads {
		t := &s.Threads[i]
		if t.Name, err = readString(br); err != nil {
			return nil, err
		}
		flags, err := br.ReadByte()
		if err != nil {
			return nil, corrupt(err)
		}
		t.Daemon = flags&1 != 0
		t.Done = flags&2 != 0
		t.PendingValid = flags&4 != 0
		taint, err := br.ReadByte()
		if err != nil {
			return nil, corrupt(err)
		}
		t.Taint = trace.Taint(taint)
		if t.PendingCode, err = br.ReadByte(); err != nil {
			return nil, corrupt(err)
		}
		obj, err := readUvarint(br)
		if err != nil {
			return nil, err
		}
		t.PendingObj = trace.ObjID(obj)
		if t.PendingDeadline, err = readUvarint(br); err != nil {
			return nil, err
		}
	}

	if s.Cells, err = readSlots(br, "cells"); err != nil {
		return nil, err
	}

	n, err = readCount(br, "mutexes")
	if err != nil {
		return nil, err
	}
	s.Mutexes = make([]trace.ThreadID, n)
	for i := range s.Mutexes {
		owner, err := readVarint(br)
		if err != nil {
			return nil, err
		}
		s.Mutexes[i] = trace.ThreadID(owner)
	}

	n, err = readCount(br, "chans")
	if err != nil {
		return nil, err
	}
	s.Chans = make([]vm.ChanSnap, n)
	for i := range s.Chans {
		slots, err := readSlots(br, "chan slots")
		if err != nil {
			return nil, err
		}
		if len(slots) == 0 {
			slots = nil
		}
		s.Chans[i].Slots = slots
	}

	n, err = readCount(br, "streams")
	if err != nil {
		return nil, err
	}
	s.Streams = make([]vm.StreamSnap, n)
	for i := range s.Streams {
		st := &s.Streams[i]
		if st.Name, err = readString(br); err != nil {
			return nil, err
		}
		idx, err := readUvarint(br)
		if err != nil {
			return nil, err
		}
		st.InIndex = int(idx)
	}

	n, err = readCount(br, "disks")
	if err != nil {
		return nil, err
	}
	s.Disks = make([]vm.DiskSnap, n)
	for i := range s.Disks {
		d := &s.Disks[i]
		if d.Recs, err = readSlots(br, "disk records"); err != nil {
			return nil, err
		}
		durable, err := readUvarint(br)
		if err != nil {
			return nil, err
		}
		d.Durable = int(durable)
		fsyncs, err := readUvarint(br)
		if err != nil {
			return nil, err
		}
		d.Fsyncs = int(fsyncs)
	}
	return s, nil
}

func readSlots(br *bufio.Reader, what string) ([]vm.SlotSnap, error) {
	n, err := readCount(br, what)
	if err != nil {
		return nil, err
	}
	slots := make([]vm.SlotSnap, n)
	for i := range slots {
		if slots[i].Val, err = trace.ReadValue(br); err != nil {
			return nil, corrupt(err)
		}
		taint, err := br.ReadByte()
		if err != nil {
			return nil, corrupt(err)
		}
		slots[i].Taint = trace.Taint(taint)
	}
	return slots, nil
}

func readCount(br *bufio.Reader, what string) (uint64, error) {
	n, err := readUvarint(br)
	if err != nil {
		return 0, err
	}
	if n > implausible {
		return 0, fmt.Errorf("%w: implausible %s count %d", ErrBadSnapshot, what, n)
	}
	return n, nil
}

func corrupt(err error) error {
	if errors.Is(err, ErrBadSnapshot) {
		return err
	}
	return fmt.Errorf("%w: %v", ErrBadSnapshot, err)
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// writeUvarint and writeVarint encode straight into the writer's free
// buffer space: a local scratch array would escape through Write and cost
// one heap allocation per field.
func writeUvarint(w *bufio.Writer, v uint64) {
	w.Write(binary.AppendUvarint(w.AvailableBuffer(), v))
}

func writeVarint(w *bufio.Writer, v int64) {
	w.Write(binary.AppendVarint(w.AvailableBuffer(), v))
}

func writeString(w *bufio.Writer, s string) {
	writeUvarint(w, uint64(len(s)))
	w.WriteString(s)
}

func readUvarint(r *bufio.Reader) (uint64, error) {
	v, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, corrupt(err)
	}
	return v, nil
}

func readVarint(r *bufio.Reader) (int64, error) {
	v, err := binary.ReadVarint(r)
	if err != nil {
		return 0, corrupt(err)
	}
	return v, nil
}

func readString(r *bufio.Reader) (string, error) {
	n, err := readCount(r, "string bytes")
	if err != nil {
		return "", err
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", corrupt(err)
	}
	return string(b), nil
}

package trace

import (
	"errors"
	"io"
	"maps"
	"math"
	"slices"

	"debugdet/internal/wire"
)

// The binary log format ("DDTL") and the event, params and value encodings
// the other containers share are laid out in DESIGN.md "Wire formats".

const (
	logMagic   = "DDTL"
	logVersion = 2
)

// ErrCorrupt reports a malformed binary log.
var ErrCorrupt = errors.New("trace: corrupt log")

// Encode writes the log in the binary format and returns the number of
// bytes written.
func Encode(w io.Writer, l *Log) (int64, error) {
	ww := wire.NewWriter(w)
	WriteLog(ww, l)
	return ww.Finish()
}

// WriteLog writes the log as one section of a larger container.
func WriteLog(w *wire.Writer, l *Log) {
	w.Magic(logMagic)
	w.Byte(logVersion)
	w.String(l.Header.Scenario)
	w.String(l.Header.Model)
	w.Varint(l.Header.Seed)
	WriteParams(w, l.Header.Params)

	// Iterate the table by index rather than copying it out: Encode
	// runs once per recorded log, including inside EncodedSize on the
	// recording overhead path.
	nSites := l.Sites.Len()
	w.Uvarint(uint64(nSites))
	for i := 0; i < nSites; i++ {
		w.String(l.Sites.Name(SiteID(i)))
	}
	WriteEvents(w, l.Events)
}

// Decode reads a log in the binary format.
func Decode(r io.Reader) (*Log, error) {
	rd := wire.NewReader(r, ErrCorrupt)
	l := ReadLog(rd)
	if err := rd.Err(); err != nil {
		return nil, err
	}
	return l, nil
}

// ReadLog reads a log written by WriteLog. The log is only meaningful if
// r.Err() is nil afterwards.
func ReadLog(r *wire.Reader) *Log {
	r.Magic(logMagic)
	r.Version(logVersion)
	l := &Log{Sites: NewSiteTable()}
	l.Header.Scenario = r.String()
	l.Header.Model = r.String()
	l.Header.Seed = r.Varint()
	l.Header.Params = ReadParams(r)

	ns := r.Count("sites", 1)
	if ns == 0 {
		r.Failf("empty site table")
	}
	for i := 0; i < ns && r.Err() == nil; i++ {
		name := r.String()
		if i == 0 {
			if name != "" {
				r.Failf("site 0 must be unnamed")
			}
			continue
		}
		l.Sites.Register(name)
	}
	l.Events, _ = ReadEvents(r)
	return l
}

// WriteParams writes a parameter map: uvarint count, then (string, zigzag
// varint) pairs in sorted key order.
func WriteParams(w *wire.Writer, params map[string]int64) {
	keys := slices.AppendSeq(make([]string, 0, len(params)), maps.Keys(params))
	slices.Sort(keys)
	w.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.String(k)
		w.Varint(params[k])
	}
}

// ReadParams reads a map written by WriteParams; an empty one is nil.
func ReadParams(r *wire.Reader) map[string]int64 {
	n := r.Count("params", 2)
	if n == 0 {
		return nil
	}
	params := make(map[string]int64, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		k := r.String()
		params[k] = r.Varint()
	}
	return params
}

// WriteEvents writes an event run: uvarint count, then per event the
// sequence and time as deltas from the previous event (runs are monotone
// in both, so deltas are tiny and the format approaches one byte per
// field), thread, kind, site, object, taint and value. It is the only
// place the per-event field sequence is written; EventSize prices it.
func WriteEvents(w *wire.Writer, events []Event) {
	w.Uvarint(uint64(len(events)))
	var prevSeq, prevTime uint64
	for i := range events {
		e := &events[i]
		w.Uvarint(e.Seq - prevSeq)
		w.Uvarint(e.Time - prevTime)
		prevSeq, prevTime = e.Seq, e.Time
		w.Varint(int64(e.TID))
		w.Byte(byte(e.Kind))
		w.Uvarint(uint64(e.Site))
		w.Uvarint(uint64(e.Obj))
		w.Byte(byte(e.Taint))
		WriteValue(w, e.Val)
	}
}

// EventSize returns the bytes WriteEvents writes for e after prev, the
// run's previous event (nil, or the zero Event, before its first). Summed
// over a run it is the section less its count: what a recorder is charged
// for the events it persists.
func EventSize(prev, e *Event) int {
	var prevSeq, prevTime uint64
	if prev != nil {
		prevSeq, prevTime = prev.Seq, prev.Time
	}
	// The kind, taint and value kind are a byte each.
	n := 3 + wire.UvarintLen(e.Seq-prevSeq) + wire.UvarintLen(e.Time-prevTime) + wire.VarintLen(int64(e.TID)) +
		wire.UvarintLen(uint64(e.Site)) + wire.UvarintLen(uint64(e.Obj))
	switch e.Val.Kind {
	case VNil:
	case VInt, VBool:
		n += wire.VarintLen(e.Val.Int)
	case VString, VBytes:
		n += wire.UvarintLen(uint64(len(e.Val.Str))) + len(e.Val.Str)
	}
	return n
}

// WriteSched writes a schedule: uvarint count, then per entry its thread
// as a zigzag delta from the previous entry's (from 0 for the first).
// SchedEntrySize prices an entry.
func WriteSched(w *wire.Writer, sched []ThreadID) {
	w.Uvarint(uint64(len(sched)))
	prev := ThreadID(0)
	for _, tid := range sched {
		w.Varint(int64(tid) - int64(prev))
		prev = tid
	}
}

// SchedEntrySize returns the bytes WriteSched writes for the entry tid
// after the entry prev (0 before the first).
func SchedEntrySize(prev, tid ThreadID) int { return wire.VarintLen(int64(tid) - int64(prev)) }

// ReadSched reads a schedule written by WriteSched, and the bytes its
// entries occupy.
func ReadSched(r *wire.Reader) ([]ThreadID, int64) {
	n := r.Count("schedule entries", 1)
	if n == 0 {
		return nil, 0
	}
	sched, start, prev := make([]ThreadID, n), r.Offset(), int64(0)
	for i := range sched {
		prev += r.Varint()
		if prev < math.MinInt32 || prev > math.MaxInt32 {
			r.Failf("schedule entry %d: thread %d out of range", i, prev)
			return nil, 0
		}
		sched[i] = ThreadID(prev)
	}
	return sched, r.Offset() - start
}

// ReadEvents reads a run written by WriteEvents into one allocation of
// exactly its length (an event is at least eight one-byte fields), and
// the bytes its events occupy. A thread outside int32, or a site or object
// of 2^32 or more, fails the reader rather than being truncated to one
// that exists.
func ReadEvents(r *wire.Reader) ([]Event, int64) {
	events := make([]Event, r.Count("events", 8))
	start := r.Offset()
	var prevSeq, prevTime uint64
	for i := range events {
		e := &events[i]
		prevSeq += r.Uvarint()
		prevTime += r.Uvarint()
		e.Seq, e.Time = prevSeq, prevTime
		tid := r.Varint()
		if tid < math.MinInt32 || tid > math.MaxInt32 {
			r.Failf("event %d: thread %d out of range", i, tid)
		}
		e.TID = ThreadID(tid)
		e.Kind = EventKind(r.Byte())
		if !e.Kind.Valid() {
			r.Failf("bad event kind %d", e.Kind)
		}
		site := r.Uvarint()
		if site > math.MaxUint32 {
			r.Failf("event %d: site %d out of range", i, site)
		}
		e.Site = SiteID(site)
		e.Obj = ReadObjID(r)
		e.Taint = Taint(r.Byte())
		e.Val = ReadValue(r)
		if r.Err() != nil {
			return nil, 0
		}
	}
	return events, r.Offset() - start
}

// ReadObjID reads an object ID written as a uvarint. An ID wider than 32
// bits names no object any machine can have: it fails the reader rather
// than being truncated to one that exists.
func ReadObjID(r *wire.Reader) ObjID {
	v := r.Uvarint()
	if v > math.MaxUint32 {
		r.Failf("object %d out of range", v)
		return 0
	}
	return ObjID(v)
}

// EncodedSize returns the size in bytes Encode would produce, without
// allocating the output.
func EncodedSize(l *Log) int64 {
	n, _ := Encode(io.Discard, l)
	return n
}

// WriteValue writes one value: kind byte, then a zigzag varint (VInt,
// VBool) or a uvarint length and the payload (VString, VBytes).
func WriteValue(w *wire.Writer, v Value) {
	w.Byte(byte(v.Kind))
	switch v.Kind {
	case VNil:
	case VInt, VBool:
		w.Varint(v.Int)
	case VString, VBytes:
		w.String(v.Str)
	}
}

// ReadValue reads one value written by WriteValue.
func ReadValue(r *wire.Reader) Value {
	v := Value{Kind: ValueKind(r.Byte())}
	switch v.Kind {
	case VNil:
	case VInt, VBool:
		v.Int = r.Varint()
	case VString, VBytes:
		v.Str = r.String()
	default:
		r.Failf("bad value kind %d", v.Kind)
	}
	if r.Err() != nil {
		return Nil
	}
	return v
}

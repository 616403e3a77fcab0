package flightrec

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"debugdet/internal/checkpoint"
	"debugdet/internal/record"
	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// On-disk formats of the flight recorder, following the house codec
// style: 4-byte magic + version byte, uvarint/zigzag-varint integers,
// delta-encoded sequences, values via the trace codec, counts bounded so
// corrupt input fails fast, and truncation reported as errors wrapping
// ErrCorrupt — never panics.
//
// Segment file (.ddseg):
//
//	magic    "DDSG" (4 bytes), version u8
//	index, from, to  uvarints
//	snapshot section (checkpoint codec, 0 or 1 snapshots): the boundary
//	         snapshot at `from`; absent for a run's first segment
//	events   uvarint count (== to-from), then per event: seq delta,
//	         time delta uvarints; tid zigzag; kind u8; site uvarint;
//	         obj uvarint; taint u8; value
//
// Manifest (manifest.ddmf):
//
//	magic    "DDMF" (4 bytes), version u8
//	scenario, model strings; seed zigzag
//	params   uvarint count, then (key string, value zigzag), sorted
//	streams  uvarint count, then names (index = stream ObjID)
//	interval uvarint; eventCount uvarint
//	flags    u8 (schedComplete|failed|finalized)
//	failureSig string
//	feedCount, feedBytes uvarints
//	segments uvarint count, then per segment: index, from, to, bytes
//	         uvarints and file string
//
// Feed log (feeds.ddfl):
//
//	magic    "DDFL" (4 bytes), version u8
//	entries until EOF, one per event of the whole run, in order:
//	         tid zigzag; kind u8; then by kind —
//	         Load/Recv/DiskRead: value, taint u8 · Input: obj uvarint,
//	         value, taint u8 · Store/DiskWrite/DiskFsync/DiskBarrier/
//	         DiskCrash: value · Output: obj uvarint, value ·
//	         Spawn: obj uvarint · anything else: no payload
const (
	segMagic      = "DDSG"
	segVersion    = 1
	manMagic      = "DDMF"
	manVersion    = 1
	feedMagic     = "DDFL"
	feedVersion   = 1
	flagSchedDone = 1
	flagFailed    = 2
	flagFinalized = 4
)

// ErrCorrupt reports a malformed flight-recorder file.
var ErrCorrupt = errors.New("flightrec: malformed flight-recorder file")

// implausibleCount bounds decoded counts, as in the other codecs.
const implausibleCount = 1 << 28

// Segment is one checkpoint-delimited slice of the event stream: the
// boundary snapshot that opens it (nil for the run's first segment) and
// the fully recorded events of [From, To).
type Segment struct {
	SegmentInfo
	Snap   *vm.Snapshot
	Events []trace.Event
}

// EncodeSegment writes the segment in the .ddseg format and returns the
// bytes written.
func EncodeSegment(w io.Writer, seg *Segment) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	bw.WriteString(segMagic)
	bw.WriteByte(segVersion)
	writeUvarint(bw, uint64(seg.Index))
	writeUvarint(bw, seg.From)
	writeUvarint(bw, seg.To)
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	var snaps []*vm.Snapshot
	if seg.Snap != nil {
		snaps = []*vm.Snapshot{seg.Snap}
	}
	if _, err := checkpoint.EncodeSnapshots(cw, snaps); err != nil {
		return cw.n, err
	}
	writeUvarint(bw, uint64(len(seg.Events)))
	var prevSeq, prevTime uint64
	for i := range seg.Events {
		e := &seg.Events[i]
		writeUvarint(bw, e.Seq-prevSeq)
		writeUvarint(bw, e.Time-prevTime)
		prevSeq, prevTime = e.Seq, e.Time
		writeVarint(bw, int64(e.TID))
		bw.WriteByte(byte(e.Kind))
		writeUvarint(bw, uint64(e.Site))
		writeUvarint(bw, uint64(e.Obj))
		bw.WriteByte(byte(e.Taint))
		trace.WriteValue(bw, e.Val)
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// DecodeSegment reads a .ddseg segment. The boundary snapshot comes back
// as persisted — stream histories empty — and must be rehydrated from the
// feed log before it can be restored.
func DecodeSegment(r io.Reader) (*Segment, error) {
	br := bufio.NewReader(r)
	if err := expectMagic(br, segMagic, segVersion); err != nil {
		return nil, err
	}
	seg := &Segment{}
	idx, err := readUvarint(br)
	if err != nil {
		return nil, err
	}
	if idx > implausibleCount {
		return nil, fmt.Errorf("%w: implausible segment index %d", ErrCorrupt, idx)
	}
	seg.Index = int(idx)
	if seg.From, err = readUvarint(br); err != nil {
		return nil, err
	}
	if seg.To, err = readUvarint(br); err != nil {
		return nil, err
	}
	if seg.To < seg.From || seg.To-seg.From > implausibleCount {
		return nil, fmt.Errorf("%w: bad segment range [%d, %d)", ErrCorrupt, seg.From, seg.To)
	}
	snaps, err := checkpoint.DecodeSnapshots(br)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if len(snaps) > 1 {
		return nil, fmt.Errorf("%w: segment carries %d snapshots", ErrCorrupt, len(snaps))
	}
	if len(snaps) == 1 {
		seg.Snap = snaps[0]
		if seg.Snap.Seq != seg.From {
			return nil, fmt.Errorf("%w: boundary snapshot at %d, segment starts at %d", ErrCorrupt, seg.Snap.Seq, seg.From)
		}
	}
	count, err := readBoundedCount(br, "event")
	if err != nil {
		return nil, err
	}
	if count != seg.To-seg.From {
		return nil, fmt.Errorf("%w: segment [%d, %d) holds %d events", ErrCorrupt, seg.From, seg.To, count)
	}
	seg.Events = make([]trace.Event, 0, count)
	var prevSeq, prevTime uint64
	for i := uint64(0); i < count; i++ {
		var e trace.Event
		dSeq, err := readUvarint(br)
		if err != nil {
			return nil, err
		}
		dTime, err := readUvarint(br)
		if err != nil {
			return nil, err
		}
		prevSeq += dSeq
		prevTime += dTime
		e.Seq, e.Time = prevSeq, prevTime
		tid, err := readVarint(br)
		if err != nil {
			return nil, err
		}
		e.TID = trace.ThreadID(tid)
		kb, err := readByte(br)
		if err != nil {
			return nil, err
		}
		if !trace.EventKind(kb).Valid() {
			return nil, fmt.Errorf("%w: bad event kind %d", ErrCorrupt, kb)
		}
		e.Kind = trace.EventKind(kb)
		site, err := readUvarint(br)
		if err != nil {
			return nil, err
		}
		e.Site = trace.SiteID(site)
		obj, err := readUvarint(br)
		if err != nil {
			return nil, err
		}
		e.Obj = trace.ObjID(obj)
		tb, err := readByte(br)
		if err != nil {
			return nil, err
		}
		e.Taint = trace.Taint(tb)
		if e.Val, err = readValue(br); err != nil {
			return nil, err
		}
		seg.Events = append(seg.Events, e)
	}
	if count > 0 && seg.Events[0].Seq != seg.From {
		return nil, fmt.Errorf("%w: first event seq %d, segment starts at %d", ErrCorrupt, seg.Events[0].Seq, seg.From)
	}
	return seg, nil
}

// manifest is the decoded manifest.ddmf: the store's Meta plus the feed
// log accounting and the retained segment table.
type manifest struct {
	Meta      Meta
	Finalized bool
	FeedCount uint64
	FeedBytes int64
	Segments  []SegmentInfo
}

// encodeManifest writes the manifest format to w.
func encodeManifest(w io.Writer, m *manifest) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(manMagic)
	bw.WriteByte(manVersion)
	writeString(bw, m.Meta.Scenario)
	writeString(bw, m.Meta.Model.String())
	writeVarint(bw, m.Meta.Seed)
	keys := make([]string, 0, len(m.Meta.Params))
	for k := range m.Meta.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	writeUvarint(bw, uint64(len(keys)))
	for _, k := range keys {
		writeString(bw, k)
		writeVarint(bw, m.Meta.Params[k])
	}
	writeUvarint(bw, uint64(len(m.Meta.Streams)))
	for _, name := range m.Meta.Streams {
		writeString(bw, name)
	}
	writeUvarint(bw, m.Meta.Interval)
	writeUvarint(bw, m.Meta.EventCount)
	var flags byte
	if m.Meta.SchedComplete {
		flags |= flagSchedDone
	}
	if m.Meta.Failed {
		flags |= flagFailed
	}
	if m.Finalized {
		flags |= flagFinalized
	}
	bw.WriteByte(flags)
	writeString(bw, m.Meta.FailureSig)
	writeUvarint(bw, m.FeedCount)
	writeUvarint(bw, uint64(m.FeedBytes))
	writeUvarint(bw, uint64(len(m.Segments)))
	for _, si := range m.Segments {
		writeUvarint(bw, uint64(si.Index))
		writeUvarint(bw, si.From)
		writeUvarint(bw, si.To)
		writeUvarint(bw, uint64(si.Bytes))
		writeString(bw, si.File)
	}
	return bw.Flush()
}

// decodeManifest reads a manifest written by encodeManifest.
func decodeManifest(r io.Reader) (*manifest, error) {
	br := bufio.NewReader(r)
	if err := expectMagic(br, manMagic, manVersion); err != nil {
		return nil, err
	}
	m := &manifest{}
	var err error
	if m.Meta.Scenario, err = readString(br); err != nil {
		return nil, err
	}
	modelName, err := readString(br)
	if err != nil {
		return nil, err
	}
	// A manifest's model is part of the replay contract, not a label:
	// fail on names this build cannot interpret.
	model, err := record.ParseModel(modelName)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	m.Meta.Model = model
	if m.Meta.Seed, err = readVarint(br); err != nil {
		return nil, err
	}
	n, err := readBoundedCount(br, "param")
	if err != nil {
		return nil, err
	}
	if n > 0 {
		m.Meta.Params = make(scenario.Params, n)
	}
	for i := uint64(0); i < n; i++ {
		k, err := readString(br)
		if err != nil {
			return nil, err
		}
		v, err := readVarint(br)
		if err != nil {
			return nil, err
		}
		m.Meta.Params[k] = v
	}
	if n, err = readBoundedCount(br, "stream"); err != nil {
		return nil, err
	}
	m.Meta.Streams = make([]string, n)
	for i := range m.Meta.Streams {
		if m.Meta.Streams[i], err = readString(br); err != nil {
			return nil, err
		}
	}
	if m.Meta.Interval, err = readUvarint(br); err != nil {
		return nil, err
	}
	if m.Meta.EventCount, err = readUvarint(br); err != nil {
		return nil, err
	}
	flags, err := readByte(br)
	if err != nil {
		return nil, err
	}
	m.Meta.SchedComplete = flags&flagSchedDone != 0
	m.Meta.Failed = flags&flagFailed != 0
	m.Finalized = flags&flagFinalized != 0
	if m.Meta.FailureSig, err = readString(br); err != nil {
		return nil, err
	}
	if m.FeedCount, err = readUvarint(br); err != nil {
		return nil, err
	}
	fb, err := readUvarint(br)
	if err != nil {
		return nil, err
	}
	m.FeedBytes = int64(fb)
	if n, err = readBoundedCount(br, "segment"); err != nil {
		return nil, err
	}
	m.Segments = make([]SegmentInfo, n)
	for i := range m.Segments {
		si := &m.Segments[i]
		idx, err := readUvarint(br)
		if err != nil {
			return nil, err
		}
		if idx > implausibleCount {
			return nil, fmt.Errorf("%w: implausible segment index %d", ErrCorrupt, idx)
		}
		si.Index = int(idx)
		if si.From, err = readUvarint(br); err != nil {
			return nil, err
		}
		if si.To, err = readUvarint(br); err != nil {
			return nil, err
		}
		b, err := readUvarint(br)
		if err != nil {
			return nil, err
		}
		si.Bytes = int64(b)
		if si.File, err = readString(br); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// feedEntry is one decoded feed-log record: the event's thread and kind
// plus the kind-specific payload vm.Restore feeds and the replay input
// source need.
type feedEntry struct {
	TID   trace.ThreadID
	Kind  trace.EventKind
	Obj   trace.ObjID
	Val   trace.Value
	Taint trace.Taint
}

// writeFeedHeader writes the feed-log magic and version.
func writeFeedHeader(bw *bufio.Writer) {
	bw.WriteString(feedMagic)
	bw.WriteByte(feedVersion)
}

// writeFeedEntry appends one event's feed record.
func writeFeedEntry(bw *bufio.Writer, e *trace.Event) {
	writeVarint(bw, int64(e.TID))
	bw.WriteByte(byte(e.Kind))
	//lint:exhaustive-default payloadless kinds encode as the kind byte alone; readFeedLog mirrors this set
	switch e.Kind {
	case trace.EvLoad, trace.EvRecv, trace.EvDiskRead:
		trace.WriteValue(bw, e.Val)
		bw.WriteByte(byte(e.Taint))
	case trace.EvInput:
		writeUvarint(bw, uint64(e.Obj))
		trace.WriteValue(bw, e.Val)
		bw.WriteByte(byte(e.Taint))
	case trace.EvStore, trace.EvDiskWrite, trace.EvDiskFsync,
		trace.EvDiskBarrier, trace.EvDiskCrash:
		trace.WriteValue(bw, e.Val)
	case trace.EvOutput:
		writeUvarint(bw, uint64(e.Obj))
		trace.WriteValue(bw, e.Val)
	case trace.EvSpawn:
		writeUvarint(bw, uint64(e.Obj))
	}
}

// readFeedLog decodes a feed log, invoking fn for every entry in event
// order. It validates the magic and stops at clean EOF; a partial entry
// is corruption.
func readFeedLog(r io.Reader, fn func(i uint64, fe *feedEntry) error) (uint64, error) {
	br := bufio.NewReader(r)
	if err := expectMagic(br, feedMagic, feedVersion); err != nil {
		return 0, err
	}
	var count uint64
	for {
		tid, err := binary.ReadVarint(br)
		if err == io.EOF {
			return count, nil
		}
		if err != nil {
			return count, fmt.Errorf("%w: feed entry %d: %v", ErrCorrupt, count, err)
		}
		if tid < math.MinInt32 || tid > math.MaxInt32 {
			return count, fmt.Errorf("%w: feed entry %d: thread %d out of range", ErrCorrupt, count, tid)
		}
		fe := feedEntry{TID: trace.ThreadID(tid)}
		kb, err := readByte(br)
		if err != nil {
			return count, err
		}
		if !trace.EventKind(kb).Valid() {
			return count, fmt.Errorf("%w: feed entry %d: bad kind %d", ErrCorrupt, count, kb)
		}
		fe.Kind = trace.EventKind(kb)
		//lint:exhaustive-default mirrors writeFeedEntry: payloadless kinds have no record body to read
		switch fe.Kind {
		case trace.EvLoad, trace.EvRecv, trace.EvDiskRead:
			if fe.Val, err = readValue(br); err != nil {
				return count, err
			}
			tb, err := readByte(br)
			if err != nil {
				return count, err
			}
			fe.Taint = trace.Taint(tb)
		case trace.EvInput:
			obj, err := readUvarint(br)
			if err != nil {
				return count, err
			}
			fe.Obj = trace.ObjID(obj)
			if fe.Val, err = readValue(br); err != nil {
				return count, err
			}
			tb, err := readByte(br)
			if err != nil {
				return count, err
			}
			fe.Taint = trace.Taint(tb)
		case trace.EvStore, trace.EvDiskWrite, trace.EvDiskFsync,
			trace.EvDiskBarrier, trace.EvDiskCrash:
			if fe.Val, err = readValue(br); err != nil {
				return count, err
			}
		case trace.EvOutput:
			obj, err := readUvarint(br)
			if err != nil {
				return count, err
			}
			fe.Obj = trace.ObjID(obj)
			if fe.Val, err = readValue(br); err != nil {
				return count, err
			}
		case trace.EvSpawn:
			obj, err := readUvarint(br)
			if err != nil {
				return count, err
			}
			fe.Obj = trace.ObjID(obj)
		}
		if err := fn(count, &fe); err != nil {
			return count, err
		}
		count++
	}
}

// feed derives the vm.FeedEntry of one feed-log record, mirroring
// checkpoint.Feeds' per-kind rules exactly.
func (fe *feedEntry) feed() vm.FeedEntry {
	out := vm.FeedEntry{Kind: fe.Kind, OK: true}
	//lint:exhaustive-default mirrors checkpoint.Feeds: kinds without replay payloads keep the zero FeedEntry fields
	switch fe.Kind {
	case trace.EvLoad, trace.EvRecv, trace.EvInput, trace.EvDiskRead:
		out.Val = fe.Val
		out.Taint = fe.Taint
	case trace.EvStore, trace.EvDiskWrite, trace.EvDiskFsync,
		trace.EvDiskBarrier, trace.EvDiskCrash:
		out.Val = fe.Val
	case trace.EvSpawn:
		out.Val = trace.Int(int64(fe.Obj))
	case trace.EvYield:
		out.OK = false
	}
	return out
}

// Shared low-level helpers, in the style of the checkpoint codec.

func expectMagic(br *bufio.Reader, magic string, version byte) error {
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(br, got); err != nil {
		return fmt.Errorf("%w: magic: %v", ErrCorrupt, err)
	}
	if string(got) != magic {
		return fmt.Errorf("%w: bad magic %q (want %q)", ErrCorrupt, got, magic)
	}
	ver, err := br.ReadByte()
	if err != nil {
		return fmt.Errorf("%w: version: %v", ErrCorrupt, err)
	}
	if ver != version {
		return fmt.Errorf("%w: unsupported %s version %d (want %d)", ErrCorrupt, magic, ver, version)
	}
	return nil
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

func readByte(br *bufio.Reader) (byte, error) {
	b, err := br.ReadByte()
	if err != nil {
		return 0, corrupt(err)
	}
	return b, nil
}

func readUvarint(br *bufio.Reader) (uint64, error) {
	v, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, corrupt(err)
	}
	return v, nil
}

func readVarint(br *bufio.Reader) (int64, error) {
	v, err := binary.ReadVarint(br)
	if err != nil {
		return 0, corrupt(err)
	}
	return v, nil
}

func readString(br *bufio.Reader) (string, error) {
	n, err := readBoundedCount(br, "string byte")
	if err != nil {
		return "", err
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(br, b); err != nil {
		return "", corrupt(err)
	}
	return string(b), nil
}

func readValue(br *bufio.Reader) (trace.Value, error) {
	v, err := trace.ReadValue(br)
	if err != nil {
		return trace.Value{}, corrupt(err)
	}
	return v, nil
}

func readBoundedCount(br *bufio.Reader, what string) (uint64, error) {
	n, err := readUvarint(br)
	if err != nil {
		return 0, err
	}
	if n > implausibleCount {
		return 0, fmt.Errorf("%w: implausible %s count %d", ErrCorrupt, what, n)
	}
	return n, nil
}

func corrupt(err error) error {
	if errors.Is(err, ErrCorrupt) {
		return err
	}
	return fmt.Errorf("%w: %v", ErrCorrupt, err)
}

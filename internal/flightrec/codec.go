package flightrec

import (
	"errors"
	"fmt"
	"io"
	"math"

	"debugdet/internal/checkpoint"
	"debugdet/internal/record"
	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
	"debugdet/internal/wire"
)

// The segment (.ddseg), manifest (manifest.ddmf) and feed-log (feeds.ddfl)
// formats are laid out in DESIGN.md "Wire formats".
const (
	segMagic      = "DDSG"
	segVersion    = 1
	manMagic      = "DDMF"
	manVersion    = 1
	feedMagic     = "DDFL"
	feedVersion   = 1
	flagFailed    = 2 // bit 0 is unused
	flagFinalized = 4
)

// ErrCorrupt reports a malformed flight-recorder file.
var ErrCorrupt = errors.New("flightrec: malformed flight-recorder file")

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
	ww := wire.NewWriter(w)
	ww.Magic(segMagic)
	ww.Byte(segVersion)
	ww.Uvarint(uint64(seg.Index))
	ww.Uvarint(seg.From)
	ww.Uvarint(seg.To)
	var snaps []*vm.Snapshot
	if seg.Snap != nil {
		snaps = []*vm.Snapshot{seg.Snap}
	}
	checkpoint.WriteSnapshots(ww, snaps)
	trace.WriteEvents(ww, seg.Events)
	return ww.Finish()
}

// DecodeSegment reads a .ddseg segment. The boundary snapshot comes back
// as persisted — stream histories empty — and must be rehydrated from the
// feed log before it can be restored.
func DecodeSegment(r io.Reader) (*Segment, error) {
	rd := wire.NewReader(r, ErrCorrupt)
	rd.Magic(segMagic)
	rd.Version(segVersion)
	seg := &Segment{}
	seg.Index = rd.Int("segment index", false)
	seg.From = rd.Uvarint()
	seg.To = rd.Uvarint()
	snaps, _ := checkpoint.ReadSnapshots(rd)
	seg.Events, _ = trace.ReadEvents(rd)
	if err := rd.Err(); err != nil {
		return nil, err
	}
	if seg.To < seg.From || uint64(len(seg.Events)) != seg.To-seg.From {
		return nil, fmt.Errorf("%w: segment [%d, %d) holds %d events", ErrCorrupt, seg.From, seg.To, len(seg.Events))
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
	if len(seg.Events) > 0 && seg.Events[0].Seq != seg.From {
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
	ww := wire.NewWriter(w)
	ww.Magic(manMagic)
	ww.Byte(manVersion)
	ww.String(m.Meta.Scenario)
	ww.String(m.Meta.Model.String())
	ww.Varint(m.Meta.Seed)
	trace.WriteParams(ww, m.Meta.Params)
	ww.Uvarint(uint64(len(m.Meta.Streams)))
	for _, name := range m.Meta.Streams {
		ww.String(name)
	}
	ww.Uvarint(m.Meta.Interval)
	ww.Uvarint(m.Meta.EventCount)
	var flags byte
	if m.Meta.Failed {
		flags |= flagFailed
	}
	if m.Finalized {
		flags |= flagFinalized
	}
	ww.Byte(flags)
	ww.String(m.Meta.FailureSig)
	ww.Uvarint(m.FeedCount)
	ww.Uvarint(uint64(m.FeedBytes))
	ww.Uvarint(uint64(len(m.Segments)))
	for _, si := range m.Segments {
		ww.Uvarint(uint64(si.Index))
		ww.Uvarint(si.From)
		ww.Uvarint(si.To)
		ww.Uvarint(uint64(si.Bytes))
		ww.String(si.File)
	}
	_, err := ww.Finish()
	return err
}

// decodeManifest reads a manifest written by encodeManifest.
func decodeManifest(r io.Reader) (*manifest, error) {
	rd := wire.NewReader(r, ErrCorrupt)
	rd.Magic(manMagic)
	rd.Version(manVersion)
	m := &manifest{}
	m.Meta.Scenario = rd.String()
	modelName := rd.String()
	m.Meta.Seed = rd.Varint()
	m.Meta.Params = scenario.Params(trace.ReadParams(rd))
	m.Meta.Streams = make([]string, rd.Count("streams", 1))
	for i := range m.Meta.Streams {
		m.Meta.Streams[i] = rd.String()
	}
	m.Meta.Interval = rd.Uvarint()
	m.Meta.EventCount = rd.Uvarint()
	flags := rd.Byte()
	m.Meta.Failed = flags&flagFailed != 0
	m.Finalized = flags&flagFinalized != 0
	m.Meta.FailureSig = rd.String()
	m.FeedCount = rd.Uvarint()
	m.FeedBytes = rd.Int64("feed log bytes")
	// A segment entry is four uvarints and a file name.
	m.Segments = make([]SegmentInfo, rd.Count("segments", 5))
	for i := range m.Segments {
		si := &m.Segments[i]
		si.Index = rd.Int("segment index", false)
		si.From = rd.Uvarint()
		si.To = rd.Uvarint()
		si.Bytes = rd.Int64("segment bytes")
		si.File = rd.String()
	}
	if err := rd.Err(); err != nil {
		return nil, err
	}
	// A manifest's model is part of the replay contract, not a label:
	// fail on names this build cannot interpret.
	model, err := record.ParseModel(modelName)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	m.Meta.Model = model
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

// feedFields says which payload fields a kind's feed record carries after
// its thread and kind byte, always in the order object, value, taint.
func feedFields(k trace.EventKind) (obj, val, taint bool) {
	//lint:exhaustive-default payloadless kinds encode as the thread and kind byte alone
	switch k {
	case trace.EvLoad, trace.EvRecv, trace.EvDiskRead:
		return false, true, true
	case trace.EvInput:
		return true, true, true
	case trace.EvStore, trace.EvDiskWrite, trace.EvDiskFsync,
		trace.EvDiskBarrier, trace.EvDiskCrash:
		return false, true, false
	case trace.EvOutput:
		return true, true, false
	case trace.EvSpawn:
		return true, false, false
	}
	return false, false, false
}

// writeFeedHeader writes the feed-log magic and version.
func writeFeedHeader(w *wire.Writer) {
	w.Magic(feedMagic)
	w.Byte(feedVersion)
}

// writeFeedEntry appends one event's feed record.
func writeFeedEntry(w *wire.Writer, e *trace.Event) {
	w.Varint(int64(e.TID))
	w.Byte(byte(e.Kind))
	obj, val, taint := feedFields(e.Kind)
	if obj {
		w.Uvarint(uint64(e.Obj))
	}
	if val {
		trace.WriteValue(w, e.Val)
	}
	if taint {
		w.Byte(byte(e.Taint))
	}
}

// readFeedLog decodes a feed log, invoking fn for every entry in event
// order. It validates the magic and stops at clean EOF; a partial entry
// is corruption. The entry fn receives is reused for the next one: fn must
// copy what it keeps, never retain the pointer.
func readFeedLog(r *wire.Reader, fn func(i uint64, fe *feedEntry) error) (uint64, error) {
	r.Magic(feedMagic)
	r.Version(feedVersion)
	var count uint64
	var fe feedEntry
	for r.More() {
		tid := r.Varint()
		if tid < math.MinInt32 || tid > math.MaxInt32 {
			r.Failf("feed entry %d: thread %d out of range", count, tid)
		}
		fe = feedEntry{TID: trace.ThreadID(tid), Kind: trace.EventKind(r.Byte())}
		if !fe.Kind.Valid() {
			r.Failf("feed entry %d: bad kind %d", count, fe.Kind)
		}
		obj, val, taint := feedFields(fe.Kind)
		if obj {
			fe.Obj = trace.ReadObjID(r)
		}
		if val {
			fe.Val = trace.ReadValue(r)
		}
		if taint {
			fe.Taint = trace.Taint(r.Byte())
		}
		if r.Err() != nil {
			break
		}
		if err := fn(count, &fe); err != nil {
			return count, err
		}
		count++
	}
	return count, r.Err()
}

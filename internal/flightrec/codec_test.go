package flightrec

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"debugdet/internal/checkpoint"
	"debugdet/internal/record"
	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
	"debugdet/internal/wire"
	"debugdet/internal/workload"
)

// recordCheckpointed builds a checkpointed perfect recording for codec
// fixtures (same shape core.Record produces).
func recordCheckpointed(t *testing.T, s *scenario.Scenario, interval uint64) *record.Recording {
	t.Helper()
	run, w := record.Run(s, s.DefaultSeed, nil, 0, interval)
	rec, _ := record.Project(s, run, w, record.Perfect, record.PolicyFor(record.Perfect))
	return rec
}

// segmentFixture builds a realistic segment: a real boundary snapshot
// (histories stripped, as the recorder spills them) plus its events.
func segmentFixture(t *testing.T) *Segment {
	t.Helper()
	s := workload.Bank()
	rec := recordCheckpointed(t, s, 64)
	if len(rec.Checkpoints) == 0 {
		t.Fatal("bank recording captured no checkpoints")
	}
	cp := rec.Checkpoints[0]
	snap := *cp
	snap.Streams = append([]vm.StreamSnap(nil), cp.Streams...)
	for i := range snap.Streams {
		snap.Streams[i].Inputs = nil
		snap.Streams[i].Outputs = nil
	}
	to := cp.Seq + 64
	if to > uint64(len(rec.Full)) {
		to = uint64(len(rec.Full))
	}
	return &Segment{
		SegmentInfo: SegmentInfo{Index: 1, From: cp.Seq, To: to},
		Snap:        &snap,
		Events:      rec.Full[cp.Seq:to],
	}
}

func TestSegmentRoundtrip(t *testing.T) {
	seg := segmentFixture(t)
	var buf bytes.Buffer
	n, err := EncodeSegment(&buf, seg)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("encode reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := DecodeSegment(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Index != seg.Index || got.From != seg.From || got.To != seg.To {
		t.Fatalf("info roundtrip: got %+v want %+v", got.SegmentInfo, seg.SegmentInfo)
	}
	if !reflect.DeepEqual(got.Events, seg.Events) {
		t.Fatalf("events differ after roundtrip")
	}
	if got.Snap == nil {
		t.Fatal("snapshot lost in roundtrip")
	}
	if err := got.Snap.EqualState(seg.Snap); err != nil {
		t.Fatalf("snapshot differs after roundtrip: %v", err)
	}
}

func TestSegmentRoundtripNoSnapshot(t *testing.T) {
	seg := segmentFixture(t)
	seg.Snap = nil
	seg.Index, seg.From, seg.To = 0, 0, uint64(len(seg.Events))
	for i := range seg.Events {
		seg.Events[i].Seq = uint64(i)
	}
	var buf bytes.Buffer
	if _, err := EncodeSegment(&buf, seg); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeSegment(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Snap != nil {
		t.Fatal("snapshot materialized from nothing")
	}
	if !reflect.DeepEqual(got.Events, seg.Events) {
		t.Fatalf("events differ after roundtrip")
	}
}

// TestSegmentRejectsTruncation mirrors the .ddrc suite: every strict
// prefix of a segment file errors — never panics, never half-loads.
func TestSegmentRejectsTruncation(t *testing.T) {
	seg := segmentFixture(t)
	var buf bytes.Buffer
	if _, err := EncodeSegment(&buf, seg); err != nil {
		t.Fatalf("encode: %v", err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeSegment(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(full))
		}
	}
}

func TestSegmentRejectsCorruptKind(t *testing.T) {
	seg := segmentFixture(t)
	seg.Events = append([]trace.Event(nil), seg.Events...)
	seg.Events[0].Kind = trace.EventKind(200)
	var buf bytes.Buffer
	if _, err := EncodeSegment(&buf, seg); err != nil {
		t.Fatalf("encode: %v", err)
	}
	_, err := DecodeSegment(bytes.NewReader(buf.Bytes()))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad kind decoded with err=%v, want ErrCorrupt", err)
	}
}

func manifestFixture() *manifest {
	return &manifest{
		Meta: Meta{
			Scenario:   "bank",
			Model:      record.Perfect,
			Seed:       7,
			Params:     scenario.Params{"transfers": 40, "accounts": 3},
			Streams:    []string{"in", "out"},
			Failed:     true,
			FailureSig: "imbalance",
			EventCount: 1234,
			Interval:   256,
		},
		Finalized: true,
		FeedCount: 1234,
		FeedBytes: 9876,
		Segments: []SegmentInfo{
			{Index: 2, From: 512, To: 768, Bytes: 1000, File: "seg-000002.ddseg"},
			{Index: 3, From: 768, To: 1234, Bytes: 1700, File: "seg-000003.ddseg"},
		},
	}
}

func TestManifestRoundtrip(t *testing.T) {
	man := manifestFixture()
	var buf bytes.Buffer
	if err := encodeManifest(&buf, man); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := decodeManifest(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, man) {
		t.Fatalf("manifest roundtrip:\ngot  %+v\nwant %+v", got, man)
	}
}

func TestManifestRejectsTruncation(t *testing.T) {
	man := manifestFixture()
	var buf bytes.Buffer
	if err := encodeManifest(&buf, man); err != nil {
		t.Fatalf("encode: %v", err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		if _, err := decodeManifest(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(full))
		}
	}
}

// TestFeedLogRoundtrip checks that a feed log written from a recording's
// event stream decodes to records whose feeds, under checkpoint.FeedEntryOf,
// are exactly those checkpoint.Feeds derives from the same events, plus the
// schedule stream.
func TestFeedLogRoundtrip(t *testing.T) {
	s := workload.Bank()
	rec := recordCheckpointed(t, s, 64)
	log := FeedLogBytes(rec.Full)

	threads := maxTID(rec.Full) + 1
	perThread := make([][]vm.FeedEntry, threads)
	var sched []trace.ThreadID
	count, err := readFeedLog(wire.NewReader(bytes.NewReader(log), ErrCorrupt), func(i uint64, fe *feedEntry) error {
		perThread[fe.TID] = append(perThread[fe.TID], checkpoint.FeedEntryOf(fe.Kind, fe.Obj, fe.Val, fe.Taint))
		sched = append(sched, fe.TID)
		return nil
	})
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if count != uint64(len(rec.Full)) {
		t.Fatalf("read %d entries, wrote %d", count, len(rec.Full))
	}
	want, err := checkpoint.Feeds(rec.Full, uint64(len(rec.Full)), threads)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(perThread, want) {
		t.Fatal("feed-log feeds differ from checkpoint.Feeds derivation")
	}
	if want, _ := rec.SchedFrom(0); !reflect.DeepEqual(sched, want) {
		t.Fatal("feed-log schedule differs from recorded schedule")
	}
}

func maxTID(events []trace.Event) int {
	max := 0
	for i := range events {
		if int(events[i].TID) > max {
			max = int(events[i].TID)
		}
	}
	return max
}

// TestFeedLogScanAllocs: scanning a feed log allocates for the values it
// decodes, not once per entry — the entry handed to fn is reused.
func TestFeedLogScanAllocs(t *testing.T) {
	rec := recordCheckpointed(t, workload.Bank(), 64)
	log := FeedLogBytes(rec.Full)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := readFeedLog(wire.NewReader(bytes.NewReader(log), ErrCorrupt), func(uint64, *feedEntry) error { return nil }); err != nil {
			t.Fatal(err)
		}
	})
	if per := allocs / float64(len(rec.Full)); per >= 0.3 {
		t.Fatalf("scanning %d feed entries allocated %.0f objects (%.2f per entry), want under 0.3 per entry", len(rec.Full), allocs, per)
	}
}

// TestFeedLogTruncation: any strict prefix either errors (cut mid-entry)
// or yields fewer entries than written (cut at an entry boundary) — the
// manifest's declared count catches the latter at open time.
func TestFeedLogTruncation(t *testing.T) {
	s := workload.Bank()
	rec := recordCheckpointed(t, s, 64)
	full := FeedLogBytes(rec.Full)
	total := uint64(len(rec.Full))
	for cut := 0; cut < len(full); cut++ {
		count, err := readFeedLog(wire.NewReader(bytes.NewReader(full[:cut]), ErrCorrupt), func(uint64, *feedEntry) error { return nil })
		if err == nil && count >= total {
			t.Fatalf("prefix of %d/%d bytes read all %d entries without error", cut, len(full), total)
		}
	}
}

package flightrec_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"debugdet/internal/checkpoint"
	"debugdet/internal/flightrec"
	"debugdet/internal/replay"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
	"debugdet/internal/workload"
)

// wideStream is a feed log holding one entry of kind on stream obj, which
// is written as a raw uvarint: an ObjID cannot hold 2^32 or more.
func wideStream(t *testing.T, kind trace.EventKind, obj uint64) []byte {
	t.Helper()
	log := flightrec.FeedLogBytes([]trace.Event{{Kind: kind, Obj: math.MaxUint32, Val: trace.Int(1)}})
	widest := binary.AppendUvarint(nil, math.MaxUint32)
	if n := bytes.Count(log, widest); n != 1 {
		t.Fatalf("the feed log holds the uvarint of 2^32-1 %d times, want once", n)
	}
	return bytes.Replace(log, widest, binary.AppendUvarint(nil, obj), 1)
}

// TestHostileFeedLog: a feed log or manifest that names a stream, a thread
// or an entry count the run cannot have had is reported as corrupt by the
// first seek that needs the feed log — no panic, and nothing reserved on
// the file's word: under 1 MB allocated by the whole failed seek. A stream
// ID of 2^32 or more, which no ObjID holds, is refused as it is decoded.
// (Before the checks, a stream ID ≥ 2^63 went negative through int() and
// panicked at the index, and a 10-byte log naming thread 2^24 allocated
// 16 M empty feeds — 3 GB — and succeeded.)
func TestHostileFeedLog(t *testing.T) {
	s := workload.Bank()
	spawn := trace.Event{TID: 0, Kind: trace.EvSpawn, Obj: 1}
	header := flightrec.FeedLogBytes(nil)
	// entries makes the manifest declare the n entries a hand-made log
	// holds, so that the seek reads them rather than refusing the count.
	entries := func(n uint64) func(uint64) uint64 { return func(uint64) uint64 { return n } }
	cases := []struct {
		name string
		log  []byte // nil keeps the recorded feed log
		// count, when set, gives the entry count the manifest is made to
		// declare, from the feed log's size in bytes.
		count func(logBytes uint64) uint64
		// want, when set, is what the error must say.
		want string
	}{
		{"output to stream 2^32-1", flightrec.FeedLogBytes([]trace.Event{{Kind: trace.EvOutput, Obj: math.MaxUint32, Val: trace.Int(1)}}), entries(1), ""},
		{"input from stream 2^32", wideStream(t, trace.EvInput, 1<<32), entries(1), "object 4294967296 out of range"},
		{"input from stream 2^63", wideStream(t, trace.EvInput, 1<<63), entries(1), "object 9223372036854775808 out of range"},
		{"output to stream 2^64-1", wideStream(t, trace.EvOutput, math.MaxUint64), entries(1), "object 18446744073709551615 out of range"},
		{"thread 2^24", flightrec.FeedLogBytes([]trace.Event{{TID: 1 << 24, Kind: trace.EvYield}}), entries(1), ""},
		{"thread 2^31-1", flightrec.FeedLogBytes([]trace.Event{{TID: math.MaxInt32, Kind: trace.EvYield}}), entries(1), ""},
		{"thread 2^31", append(binary.AppendVarint(header[:len(header):len(header)], 1<<31), byte(trace.EvYield)), entries(1), ""},
		{"thread -2^40", append(binary.AppendVarint(header[:len(header):len(header)], -(1<<40)), byte(trace.EvYield)), entries(1), ""},
		{"thread 1 before any spawn", flightrec.FeedLogBytes([]trace.Event{{TID: 1, Kind: trace.EvYield}}), entries(1), ""},
		{"thread 2 after one spawn", flightrec.FeedLogBytes([]trace.Event{spawn, {TID: 1, Kind: trace.EvYield}, {TID: 2, Kind: trace.EvYield}}), entries(3), ""},
		{"manifest counts more entries than the log has bytes", nil, func(uint64) uint64 { return 1 << 40 }, ""},
		{"manifest counts one entry per byte", nil, func(n uint64) uint64 { return n }, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := flightRecord(t, s, flightrec.Options{Interval: 64})
			dir := res.Store.Dir()
			path := filepath.Join(dir, flightrec.FeedLogName)
			if tc.log != nil {
				if err := os.WriteFile(path, tc.log, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if tc.count != nil {
				fi, err := os.Stat(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := flightrec.SetFeedCount(dir, tc.count(uint64(fi.Size()))); err != nil {
					t.Fatal(err)
				}
			}
			seqs := res.Store.SnapshotSeqs()
			target := seqs[len(seqs)-1]

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			st, err := flightrec.Open(dir)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			_, err = replay.Seek(s, st, target, replay.Options{})
			runtime.ReadMemStats(&after)
			if !errors.Is(err, flightrec.ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("seek: err = %v, want ErrCorrupt saying %q", err, tc.want)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
				t.Fatalf("failed seek allocated %d bytes", alloc)
			}
			// The failure is the store's, not the call's: every later use of
			// the feed log reports it again.
			if _, err := st.Sched(0); !errors.Is(err, flightrec.ErrCorrupt) {
				t.Fatalf("Sched after the failed seek: err = %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestSegmentRejectsWideSite: a .ddseg event whose site is written as a
// raw uvarint of 2^32 or more makes the segment corrupt; it used to decode
// as the site 2^32 below it.
func TestSegmentRejectsWideSite(t *testing.T) {
	var buf bytes.Buffer
	seg := &flightrec.Segment{SegmentInfo: flightrec.SegmentInfo{From: 0, To: 1}, Events: []trace.Event{{Kind: trace.EvYield, Site: math.MaxUint32}}}
	if _, err := flightrec.EncodeSegment(&buf, seg); err != nil {
		t.Fatal(err)
	}
	if got, err := flightrec.DecodeSegment(bytes.NewReader(buf.Bytes())); err != nil || got.Events[0].Site != math.MaxUint32 {
		t.Fatalf("site 2^32-1 did not round-trip: %v", err)
	}
	widest := binary.AppendUvarint(nil, math.MaxUint32)
	if n := bytes.Count(buf.Bytes(), widest); n != 1 {
		t.Fatalf("the segment holds the uvarint of 2^32-1 %d times, want once", n)
	}
	data := bytes.Replace(buf.Bytes(), widest, binary.AppendUvarint(nil, 1<<32+5), 1)
	if _, err := flightrec.DecodeSegment(bytes.NewReader(data)); !errors.Is(err, flightrec.ErrCorrupt) || !strings.Contains(err.Error(), "site 4294967301 out of range") {
		t.Fatalf("site 2^32+5: error %v, want ErrCorrupt saying so", err)
	}
}

// TestDecodersRejectWideIntegers: every integer a decoder narrows to an int
// or a thread ID, written as the raw varint of 2^31, 2^32 or 2^63, is
// refused with its container's corrupt-input error naming the field, and
// written as 2^31-1 it decodes. The fields are a snapshot's live counts,
// mutex owners (zigzag, so 2^63 is the bit pattern of -2^63), stream input
// cursors and disk counts, in a snapshot section and in a segment's
// boundary snapshot, and a segment's index in its file and in the
// manifest. The manifest's byte counts, of the feed log and of each
// segment, are int64s: 2^63 and 2^64-1 are refused and 2^63-1 decodes.
// (A mutex owner of 2^32 used to decode as thread 0, and a feed log byte
// count of 2^63 as -2^63, which made the feed log unbounded.)
func TestDecodersRejectWideIntegers(t *testing.T) {
	const widest = math.MaxInt32
	narrow := []uint64{1 << 31, 1 << 32, 1 << 63}
	type row struct {
		field, container string
		signed           bool
		widest           uint64   // the widest value the field decodes
		wide             []uint64 // values it refuses
		data             []byte   // the container with the field at widest
		decode           func([]byte) error
		sentinel         error
	}
	section := func(data []byte) error {
		_, err := checkpoint.DecodeSnapshots(bufio.NewReader(bytes.NewReader(data)))
		return err
	}
	segment := func(data []byte) error {
		_, err := flightrec.DecodeSegment(bytes.NewReader(data))
		return err
	}
	encodeSegment := func(seg *flightrec.Segment) []byte {
		var buf bytes.Buffer
		if _, err := flightrec.EncodeSegment(&buf, seg); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var rows []row
	for _, f := range []struct {
		name   string
		signed bool
		set    func(*vm.Snapshot)
	}{
		{"live threads", false, func(s *vm.Snapshot) { s.Live = widest }},
		{"live non-daemon threads", false, func(s *vm.Snapshot) { s.LiveNonDaemon = widest }},
		{"mutex owner", true, func(s *vm.Snapshot) { s.Mutexes[0] = widest }},
		{"stream input cursor", false, func(s *vm.Snapshot) { s.Streams[0].InIndex = widest }},
		{"durable disk records", false, func(s *vm.Snapshot) { s.Disks[0].Durable = widest }},
		{"disk fsyncs", false, func(s *vm.Snapshot) { s.Disks[0].Fsyncs = widest }},
	} {
		snap := &vm.Snapshot{
			Live: 1, LiveNonDaemon: 1, Threads: []vm.ThreadSnap{{Name: "main"}}, Mutexes: []trace.ThreadID{-1},
			Streams: []vm.StreamSnap{{Name: "in"}}, Disks: []vm.DiskSnap{{}},
		}
		f.set(snap)
		var buf bytes.Buffer
		if _, err := checkpoint.EncodeSnapshots(&buf, []*vm.Snapshot{snap}); err != nil {
			t.Fatal(err)
		}
		rows = append(rows,
			row{f.name, "snapshot section", f.signed, widest, narrow, buf.Bytes(), section, checkpoint.ErrBadSnapshot},
			row{f.name, "segment", f.signed, widest, narrow, encodeSegment(&flightrec.Segment{Snap: snap}), segment, flightrec.ErrCorrupt})
	}
	wide := []uint64{1 << 63, math.MaxUint64}
	rows = append(rows,
		row{"segment index", "segment", false, widest, narrow, encodeSegment(&flightrec.Segment{SegmentInfo: flightrec.SegmentInfo{Index: widest}}), segment, flightrec.ErrCorrupt},
		row{"segment index", "manifest", false, widest, narrow, flightrec.ManifestBytes(0, []flightrec.SegmentInfo{{Index: widest, File: "s"}}), flightrec.DecodeManifest, flightrec.ErrCorrupt},
		row{"feed log bytes", "manifest", false, math.MaxInt64, wide, flightrec.ManifestBytes(math.MaxInt64, nil), flightrec.DecodeManifest, flightrec.ErrCorrupt},
		row{"segment bytes", "manifest", false, math.MaxInt64, wide, flightrec.ManifestBytes(0, []flightrec.SegmentInfo{{Bytes: math.MaxInt64, File: "s"}}), flightrec.DecodeManifest, flightrec.ErrCorrupt})

	for _, r := range rows {
		raw := func(v uint64) []byte {
			if r.signed {
				return binary.AppendVarint(nil, int64(v))
			}
			return binary.AppendUvarint(nil, v)
		}
		if n := bytes.Count(r.data, raw(r.widest)); n != 1 {
			t.Fatalf("%s in a %s: the varint of %s appears %d times, want once", r.field, r.container, pow(r.widest), n)
		}
		if err := r.decode(r.data); err != nil {
			t.Fatalf("%s in a %s: %s does not decode: %v", r.field, r.container, pow(r.widest), err)
		}
		for _, v := range r.wide {
			t.Run(fmt.Sprintf("%s in a %s at %s", r.field, r.container, pow(v)), func(t *testing.T) {
				want := fmt.Sprintf("%s %d out of range", r.field, v)
				if r.signed {
					want = fmt.Sprintf("%s %d out of range", r.field, int64(v))
				}
				err := r.decode(bytes.Replace(r.data, raw(r.widest), raw(v), 1))
				if !errors.Is(err, r.sentinel) || !strings.Contains(err.Error(), want) {
					t.Fatalf("error %v, want %v saying %q", err, r.sentinel, want)
				}
			})
		}
	}
}

// pow writes v, a power of two or one less than one, as 2^31 or 2^31-1.
func pow(v uint64) string {
	if v&(v-1) == 0 {
		return fmt.Sprintf("2^%d", bits.TrailingZeros64(v))
	}
	return fmt.Sprintf("2^%d-1", bits.Len64(v))
}

// TestOpenRejectsWideFeedBytes: a spill directory whose manifest declares
// 2^63 bytes of feed log is refused as corrupt by Open, or else by the
// first Feeds. (The count used to decode as -2^63, and the section of the
// feed log it bounded as unbounded: the store read its whole feed log,
// past the last seal.)
func TestOpenRejectsWideFeedBytes(t *testing.T) {
	res := flightRecord(t, workload.Bank(), flightrec.Options{Interval: 64})
	dir := res.Store.Dir()
	if err := flightrec.SetFeedBytes(dir, math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, flightrec.ManifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	widest := binary.AppendUvarint(nil, math.MaxInt64)
	if n := bytes.Count(data, widest); n != 1 {
		t.Fatalf("the manifest holds the uvarint of 2^63-1 %d times, want once", n)
	}
	if err := os.WriteFile(path, bytes.Replace(data, widest, binary.AppendUvarint(nil, 1<<63), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := flightrec.Open(dir)
	if err == nil {
		seqs := res.Store.SnapshotSeqs()
		var snap *vm.Snapshot
		if snap, err = st.BestSnapshot(seqs[len(seqs)-1]); err == nil {
			_, err = st.Feeds(snap)
		}
	}
	const want = "feed log bytes 9223372036854775808 out of range"
	if !errors.Is(err, flightrec.ErrCorrupt) || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want ErrCorrupt saying %q", err, want)
	}
}

// tamperSegment rewrites the boundary snapshot of the spill directory's
// segment si through tamper.
func tamperSegment(t *testing.T, dir string, si flightrec.SegmentInfo, tamper func(*vm.Snapshot)) {
	t.Helper()
	path := filepath.Join(dir, si.File)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := flightrec.DecodeSegment(f)
	f.Close()
	if err != nil {
		t.Fatalf("segment %d: %v", si.Index, err)
	}
	if seg.Snap == nil {
		t.Fatalf("segment %d has no boundary snapshot", si.Index)
	}
	tamper(seg.Snap)
	var buf bytes.Buffer
	if _, err := flightrec.EncodeSegment(&buf, seg); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// cutThreadTable leaves a snapshot only its first thread, when threads
// spawned by it have run before the snapshot.
func cutThreadTable(sn *vm.Snapshot) { sn.Threads = sn.Threads[:1] }

// TestTamperedBoundarySnapshot: a spill directory whose boundary snapshot
// carries liveness counters, a mutex owner or a thread table that
// contradict the threads a restore rebuilds is refused by the seek that
// restores it — a typed error, no session, no goroutine left parked.
// (Trusted, a LiveNonDaemon of 0 ended the replay at the boundary with
// outcome ok, 99 ended it in a deadlock event the recorded run never had,
// an owner of -5 disabled the mutex, and a cut thread table lost the
// feeds of the threads past it.)
func TestTamperedBoundarySnapshot(t *testing.T) {
	s := workload.Bank()
	cases := map[string]func(*vm.Snapshot){
		"no non-daemon thread live":  func(sn *vm.Snapshot) { sn.LiveNonDaemon = 0 },
		"99 non-daemon threads live": func(sn *vm.Snapshot) { sn.LiveNonDaemon = 99 },
		"mutex owned by thread -5":   func(sn *vm.Snapshot) { sn.Mutexes[0] = -5 },
		"mutex owned by thread 4096": func(sn *vm.Snapshot) { sn.Mutexes[0] = 4096 },
		"thread table cut to one":    cutThreadTable,
	}
	for name, tamper := range cases {
		t.Run(name, func(t *testing.T) {
			res := flightRecord(t, s, flightrec.Options{Interval: 64})
			dir := res.Store.Dir()
			infos := res.Store.Segments()
			si := infos[len(infos)/2]
			tamperSegment(t, dir, si, tamper)

			before := runtime.NumGoroutine()
			st, err := flightrec.Open(dir)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			sess, err := replay.Seek(s, st, si.From+20, replay.Options{})
			if !errors.Is(err, vm.ErrBadSnapshot) || sess != nil {
				t.Fatalf("seek into the tampered segment: session %v, err %v; want ErrBadSnapshot and no session", sess, err)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Fatalf("%d goroutines before the seek, %d after: the failed restore left threads parked", before, n)
			}
			// The segment before it still restores and replays up to the
			// tampered boundary.
			prev := infos[len(infos)/2-1]
			sess, err = replay.Seek(s, st, prev.From+20, replay.Options{})
			if err != nil || sess.Pos() != prev.From+20 {
				t.Fatalf("seek into the segment before: %v", err)
			}
			sess.Close()
		})
	}
}

// TestTruncatedThreadTableFailsFeeds: Feeds refuses a boundary snapshot
// whose thread table misses threads that ran before it, with the same
// error from a spill directory and from a checkpointed recording of the
// same run. (The spill directory used to drop those threads' feeds
// silently; the restore then failed later, at a spawn of an unknown
// thread.)
func TestTruncatedThreadTableFailsFeeds(t *testing.T) {
	s := workload.Bank()
	const interval = 64
	res := flightRecord(t, s, flightrec.Options{Interval: interval})
	infos := res.Store.Segments()
	si := infos[len(infos)/2]
	tamperSegment(t, res.Store.Dir(), si, cutThreadTable)
	st, err := flightrec.Open(res.Store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := st.BestSnapshot(si.From)
	if err != nil {
		t.Fatal(err)
	}
	_, stErr := st.Feeds(snap)

	rec := flightrec.RecordCheckpointed(t, s, interval)
	cp, _ := rec.BestSnapshot(si.From)
	if cp == nil || cp.Seq != si.From {
		t.Fatalf("the checkpointed recording has no checkpoint at %d", si.From)
	}
	cut := *cp
	cutThreadTable(&cut)
	_, recErr := rec.Feeds(&cut)
	if !errors.Is(stErr, vm.ErrBadSnapshot) || !errors.Is(recErr, vm.ErrBadSnapshot) || stErr.Error() != recErr.Error() {
		t.Fatalf("Feeds of a thread table cut to one: spill directory %v, recording %v; want the same vm.ErrBadSnapshot", stErr, recErr)
	}
}

package checkpoint_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"debugdet/internal/checkpoint"
	"debugdet/internal/record"
	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
	"debugdet/internal/workload"
)

// capture records the bank scenario under the perfect model with a
// checkpoint writer attached and returns the recording plus the writer.
func capture(t *testing.T, interval uint64) (*record.Recording, *checkpoint.Writer) {
	t.Helper()
	s, err := workload.ByName("bank")
	if err != nil {
		t.Fatal(err)
	}
	run, w := record.Run(s, s.DefaultSeed, nil, 0, interval)
	rec, _ := record.Project(s, run, w, record.Perfect, record.PolicyFor(record.Perfect))
	return rec, w
}

func TestWriterCapturesAtInterval(t *testing.T) {
	rec, w := capture(t, 50)
	if len(rec.Checkpoints) == 0 {
		t.Fatalf("no checkpoints over %d events", rec.EventCount)
	}
	want := rec.EventCount / 50
	if max := rec.EventCount; rec.EventCount%50 == 0 && max > 0 {
		// A checkpoint can land exactly on the final event boundary.
		want = max / 50
	}
	if uint64(len(rec.Checkpoints)) != want {
		t.Errorf("captured %d checkpoints over %d events at interval 50, want %d",
			len(rec.Checkpoints), rec.EventCount, want)
	}
	for i, cp := range rec.Checkpoints {
		if cp.Seq != uint64(50*(i+1)) {
			t.Errorf("checkpoint %d at seq %d, want %d", i, cp.Seq, 50*(i+1))
		}
		if cp.SchedPos != cp.Seq {
			t.Errorf("checkpoint %d schedpos %d != seq %d", i, cp.SchedPos, cp.Seq)
		}
	}
	if w.Bytes() <= 0 {
		t.Error("writer reports no checkpoint volume")
	}
	if w.Interval() != 50 {
		t.Errorf("interval = %d", w.Interval())
	}
}

func TestBest(t *testing.T) {
	rec, _ := capture(t, 50)
	snaps := rec.Checkpoints
	if got := checkpoint.Best(snaps, 0); got != nil {
		t.Errorf("checkpoint.Best(0) = seq %d, want nil", got.Seq)
	}
	if got := checkpoint.Best(snaps, 49); got != nil {
		t.Errorf("checkpoint.Best(49) = seq %d, want nil", got.Seq)
	}
	if got := checkpoint.Best(snaps, 50); got == nil || got.Seq != 50 {
		t.Errorf("checkpoint.Best(50) = %v, want seq 50", got)
	}
	if got := checkpoint.Best(snaps, 149); got == nil || got.Seq != 100 {
		t.Errorf("checkpoint.Best(149) = %v, want seq 100", got)
	}
	if got := checkpoint.Best(snaps, 1<<40); got != snaps[len(snaps)-1] {
		t.Errorf("checkpoint.Best(huge) is not the last checkpoint")
	}
}

// TestBestUnordered pins that Best selects the maximum Seq ≤ target
// regardless of slice order: merged or overlaid snapshot sources (e.g.
// flightrec.WithSnapshots over a spliced segment ring) do not guarantee
// trace order, and the old early-break scan returned a stale — or nil —
// snapshot on such inputs.
func TestBestUnordered(t *testing.T) {
	rec, _ := capture(t, 50)
	if len(rec.Checkpoints) < 3 {
		t.Fatalf("need at least 3 checkpoints, have %d", len(rec.Checkpoints))
	}
	// A deterministic shuffle: rotate then swap ends, so the first element
	// has Seq > target for small targets (the early-break trap) and the
	// best qualifying snapshot sits after a larger one.
	snaps := make([]*vm.Snapshot, 0, len(rec.Checkpoints))
	snaps = append(snaps, rec.Checkpoints[len(rec.Checkpoints)-1])
	for i := len(rec.Checkpoints) - 2; i >= 0; i-- {
		snaps = append(snaps, rec.Checkpoints[i])
	}
	for _, target := range []uint64{0, 49, 50, 99, 149, 1 << 40} {
		want := checkpoint.Best(rec.Checkpoints, target)
		got := checkpoint.Best(snaps, target)
		switch {
		case want == nil && got != nil:
			t.Errorf("Best(shuffled, %d) = seq %d, want nil", target, got.Seq)
		case want != nil && got == nil:
			t.Errorf("Best(shuffled, %d) = nil, want seq %d", target, want.Seq)
		case want != nil && got != nil && got.Seq != want.Seq:
			t.Errorf("Best(shuffled, %d) = seq %d, want seq %d", target, got.Seq, want.Seq)
		}
	}
}

func TestSnapshotCodecRoundTrip(t *testing.T) {
	rec, _ := capture(t, 50)
	var buf bytes.Buffer
	n, err := checkpoint.EncodeSnapshots(&buf, rec.Checkpoints)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := checkpoint.DecodeSnapshots(bufioReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// The codec persists live state only; stream histories come back via
	// rehydration from the event prefix.
	if err := checkpoint.RehydrateStreams(got, rec.Full); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec.Checkpoints, got) {
		t.Fatalf("round-trip not lossless:\nwant %+v\ngot  %+v", rec.Checkpoints[0], got[0])
	}
}

func TestSnapshotCodecTruncation(t *testing.T) {
	rec, _ := capture(t, 50)
	var buf bytes.Buffer
	if _, err := checkpoint.EncodeSnapshots(&buf, rec.Checkpoints); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		_, err := checkpoint.DecodeSnapshots(bufioReader(full[:cut]))
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(full))
		}
		if !errors.Is(err, checkpoint.ErrBadSnapshot) && !errors.Is(err, trace.ErrCorrupt) {
			t.Fatalf("prefix of %d bytes: unexpected error class: %v", cut, err)
		}
	}
}

// TestSnapshotCodecRejectsWideObjID: a pending operation's object is an
// ObjID, 32 bits wide. Written as a raw uvarint of 2^32 or more it makes
// the section malformed, never a snapshot naming a truncated object.
func TestSnapshotCodecRejectsWideObjID(t *testing.T) {
	snap := &vm.Snapshot{Threads: []vm.ThreadSnap{{Name: "main", PendingValid: true, PendingObj: math.MaxUint32}}}
	var buf bytes.Buffer
	if _, err := checkpoint.EncodeSnapshots(&buf, []*vm.Snapshot{snap}); err != nil {
		t.Fatal(err)
	}
	got, err := checkpoint.DecodeSnapshots(bufioReader(buf.Bytes()))
	if err != nil || len(got) != 1 || got[0].Threads[0].PendingObj != math.MaxUint32 {
		t.Fatalf("pending object 2^32-1 did not round-trip: %v, %+v", err, got)
	}
	widest := binary.AppendUvarint(nil, math.MaxUint32)
	if n := bytes.Count(buf.Bytes(), widest); n != 1 {
		t.Fatalf("the section holds the uvarint of 2^32-1 %d times, want once", n)
	}
	for _, obj := range []uint64{1 << 32, 1 << 40, math.MaxUint64} {
		data := bytes.Replace(buf.Bytes(), widest, binary.AppendUvarint(nil, obj), 1)
		if _, err := checkpoint.DecodeSnapshots(bufioReader(data)); !errors.Is(err, checkpoint.ErrBadSnapshot) {
			t.Errorf("pending object %d: error %v, want ErrBadSnapshot", obj, err)
		}
	}
}

func TestFeedsValidation(t *testing.T) {
	rec, _ := capture(t, 50)
	cp := rec.Checkpoints[0]
	feeds, err := checkpoint.Feeds(rec.Full, cp.Seq, len(cp.Threads))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, f := range feeds {
		total += len(f)
	}
	if uint64(total) != cp.Seq {
		t.Errorf("feeds cover %d ops, prefix has %d events", total, cp.Seq)
	}
	// Spawn feed entries must resolve to the child ID, and input-like
	// entries must carry their taint.
	for i := uint64(0); i < cp.Seq; i++ {
		e := rec.Full[i]
		if e.Kind == trace.EvSpawn {
			found := false
			for _, fe := range feeds[e.TID] {
				if fe.Kind == trace.EvSpawn && fe.Val.AsInt() == int64(e.Obj) {
					found = true
				}
			}
			if !found {
				t.Fatalf("spawn of thread %d missing from feed", e.Obj)
			}
		}
	}

	// Too short a prefix errors.
	if _, err := checkpoint.Feeds(rec.Full[:10], 50, len(cp.Threads)); err == nil {
		t.Error("short prefix accepted")
	}
	// A gappy event stream (value-model shaped) errors.
	gappy := append([]trace.Event(nil), rec.Full[:50]...)
	gappy[7].Seq = 99
	if _, err := checkpoint.Feeds(gappy, 50, len(cp.Threads)); err == nil {
		t.Error("gappy prefix accepted")
	}
	// An out-of-range thread errors.
	if _, err := checkpoint.Feeds(rec.Full, cp.Seq, 1); err == nil {
		t.Error("out-of-range thread accepted")
	}
	// A checkpoint table out of trace order errors (the plan used to spin
	// on a swapped pair and index past its counters on a thread count
	// larger than the last snapshot's).
	swapped := append([]*vm.Snapshot(nil), rec.Checkpoints...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if _, err := checkpoint.PlanFeeds(rec.Full, swapped); err == nil {
		t.Error("swapped checkpoints accepted")
	}
	crowded := *cp
	crowded.Threads = make([]vm.ThreadSnap, len(rec.Checkpoints[len(rec.Checkpoints)-1].Threads)+1)
	if _, err := checkpoint.PlanFeeds(rec.Full, append([]*vm.Snapshot{&crowded}, rec.Checkpoints[1:]...)); err == nil {
		t.Error("a first checkpoint with more threads than the last accepted")
	}
}

// bufioReader wraps bytes in the reader type the decoder takes.
func bufioReader(b []byte) *bufio.Reader { return bufio.NewReader(bytes.NewReader(b)) }

// TestRestoreRejectsCorruptFeeds pins the restore error path: a feed that
// disagrees with the program must produce an error — promptly, with every
// already-started thread released — never a hang or a silently divergent
// machine. (A regression here deadlocks the test and trips the go test
// timeout.)
func TestRestoreRejectsCorruptFeeds(t *testing.T) {
	s, err := workload.ByName("bank")
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := capture(t, 100)
	cp := rec.Checkpoints[len(rec.Checkpoints)-1]
	feeds, err := checkpoint.Feeds(rec.Full, cp.Seq, len(cp.Threads))
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a mid-feed entry of a later thread, so earlier threads have
	// already parked when the failure surfaces — the path that must
	// release them before returning.
	victim := -1
	for tid := len(feeds) - 1; tid > 0; tid-- {
		if len(feeds[tid]) > 1 {
			victim = tid
			break
		}
	}
	if victim < 0 {
		t.Fatal("no thread with a multi-entry feed")
	}
	bad := make([]vm.FeedEntry, len(feeds[victim]))
	copy(bad, feeds[victim])
	bad[len(bad)/2].Kind = trace.EvExit
	feeds[victim] = bad

	cfg := vm.Config{
		Seed:      rec.Seed,
		Scheduler: vm.NewReplayScheduler(nil),
		RelaxTime: true,
	}
	setup := func(m *vm.Machine) func(*vm.Thread) {
		return s.Build(m, s.DefaultParams)
	}
	if _, err := vm.Restore(cfg, setup, cp, feeds); err == nil {
		t.Fatal("restore accepted a corrupted feed")
	}
}

// BenchmarkPlanFeeds times the feed fold over a recording's events, the
// derivation a recording's first restore pays once: dynokv-staleread at 200
// rounds (about 139k events) with a checkpoint every 1024 events, reported
// per event folded.
func BenchmarkPlanFeeds(b *testing.B) {
	s, err := workload.ByName("dynokv-staleread")
	if err != nil {
		b.Fatal(err)
	}
	run, w := record.Run(s, s.DefaultSeed, scenario.Params{"rounds": 200}, 0, 1024)
	rec, _ := record.Project(s, run, w, record.Perfect, record.PolicyFor(record.Perfect))
	records := float64(len(rec.Full))
	var before, after runtime.MemStats
	b.ResetTimer()
	runtime.ReadMemStats(&before)
	for range b.N {
		if _, err := checkpoint.PlanFeeds(rec.Full, rec.Checkpoints); err != nil {
			b.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/records, "ns/record")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/records, "B/record")
}

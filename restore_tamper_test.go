package debugdet_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"debugdet"
	"debugdet/internal/flightrec"
	"debugdet/internal/vm"
	"debugdet/sim"
	"debugdet/trace"
)

// settledGoroutines polls until the goroutine count is back at or under the
// given baseline and returns the count it last saw.
func settledGoroutines(baseline int) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline || time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSeekRejectsTamperedSnapshot: a checkpoint whose liveness counters or
// mutex owners contradict the threads a restore rebuilds from it is an
// error, not a session. Trusted, a LiveNonDaemon of 0 made the seek stop at
// the checkpoint and RunToEnd report outcome ok after 192 of 415 events with
// four threads live; 99 made RunToEnd accept a deadlock event the recorded
// run never had; a mutex owned by thread -5 disabled every Lock of it; a
// stream cursor of -14 panicked the first Input after the restore; a thread
// table cut to one thread is refused by Feeds, as a spill directory's is.
func TestSeekRejectsTamperedSnapshot(t *testing.T) {
	ctx := context.Background()
	eng := debugdet.New()
	s, err := eng.ByName("bank")
	if err != nil {
		t.Fatal(err)
	}
	const at, target = 192, 212
	cases := map[string]func(*sim.Snapshot){
		"no non-daemon thread live":    func(cp *sim.Snapshot) { cp.LiveNonDaemon = 0 },
		"99 non-daemon threads live":   func(cp *sim.Snapshot) { cp.LiveNonDaemon = 99 },
		"one thread too few live":      func(cp *sim.Snapshot) { cp.Live--; cp.LiveNonDaemon-- },
		"mutex owned by thread -5":     func(cp *sim.Snapshot) { cp.Mutexes[0] = -5 },
		"mutex owned by a thread past": func(cp *sim.Snapshot) { cp.Mutexes[0] = trace.ThreadID(len(cp.Threads)) },
		"stream cursor before 0":       func(cp *sim.Snapshot) { cp.Streams[0].InIndex = -14 },
		"thread table cut to one":      func(cp *sim.Snapshot) { cp.Threads = cp.Threads[:1] },
	}
	for name, tamper := range cases {
		t.Run(name, func(t *testing.T) {
			rec, _, err := eng.Record(ctx, s, debugdet.Perfect, debugdet.Options{CheckpointInterval: 64})
			if err != nil {
				t.Fatal(err)
			}
			var cp *sim.Snapshot
			for _, c := range rec.Checkpoints {
				if c.Seq == at {
					cp = c
				}
			}
			if cp == nil || rec.EventCount != 415 {
				t.Fatalf("no checkpoint at %d of %d events", at, rec.EventCount)
			}
			before := runtime.NumGoroutine()
			// Untouched, the checkpoint seeks and finishes as recorded.
			sess, err := eng.Seek(ctx, s, rec, target, debugdet.ReplayOptions{})
			if err != nil || sess.Pos() != target || !sess.FromCheckpoint {
				t.Fatalf("seek before tampering: pos %d, err %v", sess.Pos(), err)
			}
			if view, ok := sess.RunToEnd(); !ok || view.Result.Steps != rec.EventCount {
				t.Fatalf("run to end before tampering: ok=%v after %d events", ok, view.Result.Steps)
			}

			tamper(cp)
			sess, err = eng.Seek(ctx, s, rec, target, debugdet.ReplayOptions{})
			if !errors.Is(err, vm.ErrBadSnapshot) || sess != nil {
				t.Fatalf("seek on the tampered checkpoint: session %v, err %v; want ErrBadSnapshot and no session", sess, err)
			}
			if n := settledGoroutines(before); n > before {
				t.Fatalf("%d goroutines before the seeks, %d after: the failed restore left threads behind", before, n)
			}
		})
	}
}

// FuzzRestoreTampered: a structurally valid snapshot with one field
// changed — what a bit flip in a recording file that still decodes looks
// like — makes Seek return an error or a session that runs to its end;
// it never panics, hangs or leaves a thread's goroutine behind. Seeded
// with TestSeekRejectsTamperedSnapshot's cases.
func FuzzRestoreTampered(f *testing.F) {
	ctx := context.Background()
	eng := debugdet.New()
	s, err := eng.ByName("bank")
	if err != nil {
		f.Fatal(err)
	}
	rec, _, err := eng.Record(ctx, s, debugdet.Perfect, debugdet.Options{CheckpointInterval: 64})
	if err != nil {
		f.Fatal(err)
	}
	const at = 2 // the checkpoint at event 192
	// fields are the single-field edits, each of element i (modulo the
	// slice's length) to v.
	fields := []func(cp *sim.Snapshot, i int, v int64){
		func(cp *sim.Snapshot, _ int, v int64) { cp.Seq = uint64(v) },
		func(cp *sim.Snapshot, _ int, v int64) { cp.Clock = uint64(v) },
		func(cp *sim.Snapshot, _ int, v int64) { cp.RecordCycles = uint64(v) },
		func(cp *sim.Snapshot, _ int, v int64) { cp.SchedPos = uint64(v) },
		func(cp *sim.Snapshot, _ int, v int64) { cp.Live = int(v) },
		func(cp *sim.Snapshot, _ int, v int64) { cp.LiveNonDaemon = int(v) },
		func(cp *sim.Snapshot, i int, v int64) { cp.Mutexes[i%len(cp.Mutexes)] = trace.ThreadID(v) },
		func(cp *sim.Snapshot, i int, v int64) { cp.Cells[i%len(cp.Cells)].Val = trace.Int(v) },
		func(cp *sim.Snapshot, i int, v int64) { cp.Threads[i%len(cp.Threads)].Done = v&1 == 0 },
		func(cp *sim.Snapshot, i int, v int64) { cp.Threads[i%len(cp.Threads)].Daemon = v&1 == 0 },
		func(cp *sim.Snapshot, i int, v int64) { cp.Threads[i%len(cp.Threads)].PendingValid = v&1 == 0 },
		func(cp *sim.Snapshot, i int, v int64) { cp.Threads[i%len(cp.Threads)].PendingCode = uint8(v) },
		func(cp *sim.Snapshot, i int, v int64) { cp.Threads[i%len(cp.Threads)].PendingObj = trace.ObjID(v) },
		func(cp *sim.Snapshot, i int, v int64) { cp.Threads[i%len(cp.Threads)].PendingDeadline = uint64(v) },
		func(cp *sim.Snapshot, i int, v int64) { cp.Streams[i%len(cp.Streams)].InIndex = int(v) },
		func(cp *sim.Snapshot, i int, _ int64) { cp.Threads = cp.Threads[:i%len(cp.Threads)] },
		func(cp *sim.Snapshot, i int, _ int64) { cp.Cells = cp.Cells[:i%len(cp.Cells)] },
		func(cp *sim.Snapshot, i int, _ int64) { cp.Streams = cp.Streams[:i%len(cp.Streams)] },
	}
	f.Add(uint8(5), uint16(0), int64(0))  // no non-daemon thread live
	f.Add(uint8(5), uint16(0), int64(99)) // 99 non-daemon threads live
	f.Add(uint8(4), uint16(0), int64(rec.Checkpoints[at].Live-1))
	f.Add(uint8(6), uint16(0), int64(-5))
	f.Add(uint8(6), uint16(0), int64(len(rec.Checkpoints[at].Threads)))
	// What this target found: a checkpoint table out of trace order spun
	// the feed plan forever, and a negative stream cursor indexed the
	// recorded inputs out of range at the first Input after the restore.
	f.Add(uint8(0), uint16(0), int64(99))
	f.Add(uint8(14), uint16(0), int64(-14))
	f.Fuzz(func(t *testing.T, field uint8, index uint16, value int64) {
		// A private copy of the recording's checkpoint table and of the one
		// snapshot the edit lands in.
		tampered := *rec
		tampered.Checkpoints = append([]*sim.Snapshot(nil), rec.Checkpoints...)
		cp := *rec.Checkpoints[at]
		cp.Threads = append([]sim.ThreadSnap(nil), cp.Threads...)
		cp.Cells = append([]sim.SlotSnap(nil), cp.Cells...)
		cp.Mutexes = append([]trace.ThreadID(nil), cp.Mutexes...)
		cp.Streams = append([]sim.StreamSnap(nil), cp.Streams...)
		tampered.Checkpoints[at] = &cp
		target := cp.Seq + 20
		fields[int(field)%len(fields)](&cp, int(index), value)

		before := runtime.NumGoroutine()
		sess, err := eng.Seek(ctx, s, &tampered, target, debugdet.ReplayOptions{MaxSteps: 4 * rec.EventCount})
		if err == nil {
			sess.RunToEnd()
		}
		if n := settledGoroutines(before); n > before {
			t.Fatalf("%d goroutines before the seek, %d after (seek error: %v)", before, n, err)
		}
	})
}

// FuzzSeekTamperedSegment is FuzzRestoreTampered for a file on disk: one
// retained .ddseg of a bank spill directory has a byte range replaced —
// overwritten in place, or spliced to another length — and the directory
// is then opened, sought into that segment, replayed to its end and
// closed. Whatever the bytes, the result is an error or a finished
// session: no panic, no hang, no goroutine left behind. Seeded with
// TestTamperedBoundarySnapshot's boundary-snapshot edits, re-encoded, as
// the byte ranges they change.
func FuzzSeekTamperedSegment(f *testing.F) {
	ctx := context.Background()
	eng := debugdet.New()
	s, err := eng.ByName("bank")
	if err != nil {
		f.Fatal(err)
	}
	dir := filepath.Join(f.TempDir(), "spill")
	res, err := eng.RecordStreaming(ctx, s, debugdet.Options{
		FlightRecorder: &debugdet.FlightRecorderOptions{Interval: 64, SpillDir: dir},
	})
	if err != nil {
		f.Fatal(err)
	}
	infos := res.Store.Segments()
	si := infos[len(infos)/2]
	orig, err := os.ReadFile(filepath.Join(dir, si.File))
	if err != nil {
		f.Fatal(err)
	}
	for _, tamper := range []func(*vm.Snapshot){
		func(sn *vm.Snapshot) { sn.LiveNonDaemon = 0 },
		func(sn *vm.Snapshot) { sn.LiveNonDaemon = 99 },
		func(sn *vm.Snapshot) { sn.Mutexes[0] = -5 },
		func(sn *vm.Snapshot) { sn.Mutexes[0] = 4096 },
		func(sn *vm.Snapshot) { sn.Threads = sn.Threads[:1] },
	} {
		seg, err := flightrec.DecodeSegment(bytes.NewReader(orig))
		if err != nil || seg.Snap == nil {
			f.Fatalf("segment %d: no boundary snapshot (%v)", si.Index, err)
		}
		tamper(seg.Snap)
		var buf bytes.Buffer
		if _, err := flightrec.EncodeSegment(&buf, seg); err != nil {
			f.Fatal(err)
		}
		// The seed is the changed range: orig[at:len(orig)-tail] becomes
		// edited[at:len(edited)-tail].
		edited := buf.Bytes()
		at, tail := 0, 0
		for at < len(orig) && at < len(edited) && orig[at] == edited[at] {
			at++
		}
		for tail < len(orig)-at && tail < len(edited)-at && orig[len(orig)-1-tail] == edited[len(edited)-1-tail] {
			tail++
		}
		f.Add(uint32(at), uint32(len(orig)-tail-at), edited[at:len(edited)-tail])
	}
	f.Fuzz(func(t *testing.T, off, n uint32, data []byte) {
		at := int(off % uint32(len(orig)+1))
		end := at + int(n%uint32(len(orig)-at+1))
		seg := append(append(append([]byte(nil), orig[:at]...), data...), orig[end:]...)
		cp := filepath.Join(t.TempDir(), "spill")
		if err := os.CopyFS(cp, os.DirFS(dir)); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cp, si.File), seg, 0o644); err != nil {
			t.Fatal(err)
		}

		before := runtime.NumGoroutine()
		st, err := flightrec.Open(cp)
		if err == nil {
			var sess *debugdet.SeekSession
			sess, err = eng.Seek(ctx, s, st, si.From+20, debugdet.ReplayOptions{MaxSteps: 4 * res.Events})
			if err == nil {
				sess.RunToEnd()
				sess.Close()
			}
		}
		if n := settledGoroutines(before); n > before {
			t.Fatalf("%d goroutines before the seek, %d after (error: %v)", before, n, err)
		}
	})
}

package replay

import (
	"reflect"
	"runtime"
	"testing"

	"debugdet/internal/record"
	"debugdet/internal/scenario"
	"debugdet/internal/vm"
	"debugdet/internal/workload"
)

// recordCheckpointed records one perfect-model run with checkpoints every
// interval events (what core.Record does for CheckpointInterval).
func recordCheckpointed(t testing.TB, s *scenario.Scenario, interval uint64) *record.Recording {
	t.Helper()
	run, w := record.Run(s, s.DefaultSeed, nil, 0, interval)
	rec, _ := record.Project(s, run, w, record.Perfect, record.PolicyFor(record.Perfect))
	return rec
}

// checkpointedCorpusRecording records the scenario with an interval
// adapted to its trace length, so short scenarios still get checkpoints
// and long ones get a handful.
func checkpointedCorpusRecording(t testing.TB, s *scenario.Scenario) *record.Recording {
	t.Helper()
	plain, _, err := record.Record(s, record.Perfect, s.DefaultSeed, nil)
	if err != nil {
		t.Fatalf("%s: record: %v", s.Name, err)
	}
	interval := plain.EventCount / 6
	if interval < 4 {
		interval = 4
	}
	return recordCheckpointed(t, s, interval)
}

// TestSeekEquivalence is the seek acceptance test: for every corpus
// scenario, a replay resumed from each checkpoint produces a suffix trace
// logically identical (EventsMatch: every field but virtual time) to the
// corresponding slice of a full sequential replay, and restoring a
// checkpoint reproduces its snapshotted machine state exactly.
func TestSeekEquivalence(t *testing.T) {
	for _, s := range workload.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			rec := checkpointedCorpusRecording(t, s)
			if len(rec.Checkpoints) == 0 {
				t.Fatalf("no checkpoints captured over %d events", rec.EventCount)
			}

			full := Replay(s, rec, Options{})
			if !full.Ok {
				t.Fatalf("sequential replay not ok: %s", full.Note)
			}
			ref := full.View.Trace.Events

			for _, cp := range rec.Checkpoints {
				sess, err := Seek(s, rec, cp.Seq, Options{})
				if err != nil {
					t.Fatalf("seek %d: %v", cp.Seq, err)
				}
				if !sess.FromCheckpoint || sess.SuffixFrom != cp.Seq {
					t.Fatalf("seek %d: restored from %d (checkpoint=%v)", cp.Seq, sess.SuffixFrom, sess.FromCheckpoint)
				}
				// The restored machine must be in exactly the snapshotted
				// state before a single suffix event runs.
				got := sess.Machine.Snapshot(vm.NoRunningThread)
				if err := got.EqualState(cp); err != nil {
					t.Fatalf("seek %d: restored state differs: %v", cp.Seq, err)
				}
				view, ok := sess.RunToEnd()
				if !ok {
					t.Fatalf("seek %d: suffix replay not ok (outcome %s)", cp.Seq, view.Result.Outcome)
				}
				suffix := view.Trace.Events
				want := ref[cp.Seq:]
				if len(suffix) != len(want) {
					t.Fatalf("seek %d: suffix has %d events, full replay suffix %d", cp.Seq, len(suffix), len(want))
				}
				for i := range suffix {
					if !EventsMatch(&suffix[i], &want[i]) {
						t.Fatalf("seek %d: event %d differs:\nseek %v\nfull %v", cp.Seq, suffix[i].Seq, suffix[i], want[i])
					}
				}
			}
		})
	}
}

// TestSeekFallback pins the compatibility contract: a recording without
// checkpoints (a v1-format file, or checkpointing off) still seeks — by
// replaying from the start — and produces the same suffix.
func TestSeekFallback(t *testing.T) {
	s, err := workload.ByName("bank")
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err := record.Record(s, record.Perfect, s.DefaultSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Checkpoints) != 0 {
		t.Fatalf("plain recording has %d checkpoints", len(rec.Checkpoints))
	}
	target := rec.EventCount / 2
	sess, err := Seek(s, rec, target, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sess.FromCheckpoint || sess.SuffixFrom != 0 {
		t.Fatalf("fallback seek used a checkpoint: from=%d", sess.SuffixFrom)
	}
	if sess.Pos() != target {
		t.Fatalf("fallback seek at %d, want %d", sess.Pos(), target)
	}
	if sess.ReplaySteps != target {
		t.Fatalf("fallback replayed %d events, want %d", sess.ReplaySteps, target)
	}
	if _, ok := sess.RunToEnd(); !ok {
		t.Fatal("fallback seek replay not ok")
	}
}

// TestRunToEndAfterClose: Close ends a session's run without building a
// view, and RunToEnd after it returns the abandoned run's: aborted where
// the session stood, not replayed to the end, and never accepted — also
// for a recording that did not fail, whose failure check finds nothing in
// the abandoned prefix either.
func TestRunToEndAfterClose(t *testing.T) {
	for _, c := range []struct {
		name   string
		failed bool
	}{{"bank", true}, {"hyperkv-fixed", false}} {
		t.Run(c.name, func(t *testing.T) {
			s, err := workload.ByName(c.name)
			if err != nil {
				t.Fatal(err)
			}
			rec := checkpointedCorpusRecording(t, s)
			if rec.Failed != c.failed {
				t.Fatalf("recording failed=%v, want %v", rec.Failed, c.failed)
			}
			target := rec.Checkpoints[len(rec.Checkpoints)/2].Seq + 5
			sess, err := Seek(s, rec, target, Options{})
			if err != nil {
				t.Fatal(err)
			}
			sess.Close()
			sess.Close()
			view, ok := sess.RunToEnd()
			if ok || view.Result.Outcome != vm.OutcomeAborted || view.Result.Steps != target || sess.ReplaySteps != 5 {
				t.Fatalf("RunToEnd after Close: ok=%v outcome %s after %d steps (%d replayed), want the run aborted at %d",
					ok, view.Result.Outcome, view.Result.Steps, sess.ReplaySteps, target)
			}
			if again, ok := sess.RunToEnd(); again != view || ok {
				t.Fatalf("a second RunToEnd returned another view or ok=%v", ok)
			}
		})
	}
}

// TestSeekUnsupportedModels pins the gate: seek, segmented replay and the
// debugger refuse recordings that lack the complete event stream.
func TestSeekUnsupportedModels(t *testing.T) {
	s, err := workload.ByName("bank")
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []record.Model{record.Value, record.Output, record.Failure} {
		rec, _, err := record.Record(s, model, s.DefaultSeed, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Seek(s, rec, 0, Options{}); err == nil {
			t.Errorf("%s: seek accepted an incomplete recording", model)
		}
		if _, err := Segmented(s, rec, Options{}); err == nil {
			t.Errorf("%s: segmented replay accepted an incomplete recording", model)
		}
		if _, err := NewDebugger(s, rec, DebugOptions{}); err == nil {
			t.Errorf("%s: debugger accepted an incomplete recording", model)
		}
	}
}

// segmentedFingerprint reduces a segmented result to the fields the
// sequential-equivalence contract pins. SegmentedResult.Restores is not
// among them: it is the one field that depends on the worker count.
type segmentedFingerprint struct {
	Ok        bool
	Segments  int
	Mismatch  int64
	WorkSteps uint64
	Events    int
	Outcome   vm.Outcome
	Steps     uint64
	Outputs   map[string][]int64
}

func fingerprint(res *SegmentedResult) segmentedFingerprint {
	fp := segmentedFingerprint{
		Ok:        res.Ok,
		Segments:  res.Segments,
		Mismatch:  res.Mismatch,
		WorkSteps: res.WorkSteps,
		Events:    len(res.View.Trace.Events),
		Outcome:   res.View.Result.Outcome,
		Steps:     res.View.Result.Steps,
		Outputs:   map[string][]int64{},
	}
	for name, vals := range res.View.Result.Outputs {
		for _, v := range vals {
			fp.Outputs[name] = append(fp.Outputs[name], v.AsInt())
		}
	}
	return fp
}

// TestSegmentedEquivalence is the segmented-replay acceptance test: on
// every corpus scenario the parallel segment validation succeeds, matches
// the sequential replay trace, and is deep-equal across worker counts:
// sequential, uneven chunks (2, 3), GOMAXPROCS, one chunk per segment and
// more workers than segments.
func TestSegmentedEquivalence(t *testing.T) {
	for _, s := range workload.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			rec := checkpointedCorpusRecording(t, s)
			full := Replay(s, rec, Options{})
			if !full.Ok {
				t.Fatalf("sequential replay not ok: %s", full.Note)
			}

			wantSegs := 1
			for _, cp := range rec.Checkpoints {
				if cp.Seq > 0 && cp.Seq < uint64(len(rec.Full)) {
					wantSegs++
				}
			}
			workerCounts := append(segmentedWorkers(wantSegs), runtime.GOMAXPROCS(0))
			var first *segmentedFingerprint
			for _, workers := range workerCounts {
				res, err := Segmented(s, rec, Options{Workers: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !res.Ok {
					t.Fatalf("workers=%d: segmented replay not ok (mismatch at %d)", workers, res.Mismatch)
				}
				if res.Segments != wantSegs {
					t.Fatalf("workers=%d: %d segments, want %d", workers, res.Segments, wantSegs)
				}
				// The stitched trace must match the sequential replay
				// event for event.
				if len(res.View.Trace.Events) != len(full.View.Trace.Events) {
					t.Fatalf("workers=%d: stitched %d events, sequential %d",
						workers, len(res.View.Trace.Events), len(full.View.Trace.Events))
				}
				for i := range res.View.Trace.Events {
					if !EventsMatch(&res.View.Trace.Events[i], &full.View.Trace.Events[i]) {
						t.Fatalf("workers=%d: stitched event %d differs", workers, i)
					}
				}
				fp := fingerprint(res)
				if first == nil {
					first = &fp
				} else if !reflect.DeepEqual(*first, fp) {
					t.Fatalf("workers=%d: result differs from workers=%d:\n%+v\n%+v",
						workers, workerCounts[0], fp, *first)
				}
			}
		})
	}
}

// TestDebuggerNavigation drives the time-travel session over a recording:
// step, seek, back, inspection and checkpoint materialization for
// checkpoint-free recordings.
func TestDebuggerNavigation(t *testing.T) {
	s, err := workload.ByName("bank")
	if err != nil {
		t.Fatal(err)
	}
	// A checkpoint-free recording: the debugger must materialize its own.
	rec, _, err := record.Record(s, record.Perfect, s.DefaultSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDebugger(s, rec, DebugOptions{Interval: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if len(d.Checkpoints()) == 0 {
		t.Fatal("debugger materialized no checkpoints")
	}
	if d.Pos() != 0 {
		t.Fatalf("opened at %d, want 0", d.Pos())
	}
	if err := d.Step(10); err != nil {
		t.Fatal(err)
	}
	if d.Pos() != 10 {
		t.Fatalf("pos=%d after step 10", d.Pos())
	}
	mid := d.Len() / 2
	if err := d.SeekTo(mid); err != nil {
		t.Fatal(err)
	}
	if d.Pos() != mid {
		t.Fatalf("pos=%d after seek %d", d.Pos(), mid)
	}
	threads := d.Machine().Threads()
	if len(threads) == 0 {
		t.Fatal("no threads visible at cursor")
	}
	ev, ok := d.Event()
	if !ok || ev.Seq != mid {
		t.Fatalf("event at cursor = %v ok=%v, want seq %d", ev, ok, mid)
	}
	if err := d.Back(7); err != nil {
		t.Fatal(err)
	}
	if d.Pos() != mid-7 {
		t.Fatalf("pos=%d after back 7 from %d", d.Pos(), mid)
	}
	// Determinism check across travel: the event stream at the cursor is
	// the recorded one.
	if evs := d.Events(d.Pos(), d.Pos()+3); len(evs) != 3 || evs[0].Seq != d.Pos() {
		t.Fatalf("events window wrong: %v", evs)
	}
	if err := d.SeekTo(d.Len()); err != nil {
		t.Fatal(err)
	}
	if !d.Done() {
		t.Fatal("not done at end of recording")
	}
}

// TestSeekBoundaryTargets pins the edges of the seek target domain —
// target 0, the exact last event, and targets past the end of the
// recording — on both checkpointed and checkpoint-free recordings. Each
// boundary must yield the exact recorded state (never a wrong snapshot)
// and a clean completed replay, never a panic.
func TestSeekBoundaryTargets(t *testing.T) {
	s, err := workload.ByName("bank")
	if err != nil {
		t.Fatal(err)
	}
	ckpt := checkpointedCorpusRecording(t, s)
	if len(ckpt.Checkpoints) == 0 {
		t.Fatalf("no checkpoints captured over %d events", ckpt.EventCount)
	}
	plain, _, err := record.Record(s, record.Perfect, s.DefaultSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	end := ckpt.EventCount
	if plain.EventCount != end {
		t.Fatalf("recordings disagree on length: %d vs %d events", plain.EventCount, end)
	}

	for _, tc := range []struct {
		label  string
		rec    *record.Recording
		target uint64
		pos    uint64
	}{
		{"checkpointed/zero", ckpt, 0, 0},
		{"checkpointed/last", ckpt, end, end},
		{"checkpointed/past-end", ckpt, end*2 + 1000, end},
		{"plain/zero", plain, 0, 0},
		{"plain/last", plain, end, end},
		{"plain/past-end", plain, end*2 + 1000, end},
	} {
		sess, err := Seek(s, tc.rec, tc.target, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		if sess.Pos() != tc.pos {
			t.Fatalf("%s: positioned at %d, want %d", tc.label, sess.Pos(), tc.pos)
		}
		if sess.SuffixFrom > tc.pos {
			t.Fatalf("%s: restored from %d, past the position %d (wrong snapshot)",
				tc.label, sess.SuffixFrom, tc.pos)
		}
		if tc.target == 0 && sess.FromCheckpoint {
			t.Fatalf("%s: target 0 used a checkpoint; no snapshot precedes event 0", tc.label)
		}
		if sess.ReplaySteps != tc.pos-sess.SuffixFrom {
			t.Fatalf("%s: replayed %d events to cover %d..%d",
				tc.label, sess.ReplaySteps, sess.SuffixFrom, tc.pos)
		}
		view, ok := sess.RunToEnd()
		if !ok {
			t.Fatalf("%s: replay not ok (outcome %s)", tc.label, view.Result.Outcome)
		}
		if view.Result.Steps != end {
			t.Fatalf("%s: completed after %d steps, want %d", tc.label, view.Result.Steps, end)
		}
	}

	// The debugger clamps out-of-range cursors instead of erroring: seeking
	// or stepping past the end lands on the last event, and seeking back to
	// 0 restores the initial state exactly.
	d, err := NewDebugger(s, ckpt, DebugOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.SeekTo(end + 500); err != nil {
		t.Fatalf("seek past end: %v", err)
	}
	if d.Pos() != end || !d.Done() {
		t.Fatalf("seek past end stopped at %d (done=%v), want %d", d.Pos(), d.Done(), end)
	}
	if ev, ok := d.Event(); ok {
		t.Fatalf("cursor at the end still reports event %v", ev)
	}
	if err := d.Step(7); err != nil {
		t.Fatalf("step past end: %v", err)
	}
	if d.Pos() != end {
		t.Fatalf("step past end moved the cursor to %d", d.Pos())
	}
	if err := d.SeekTo(0); err != nil {
		t.Fatalf("seek to 0: %v", err)
	}
	if d.Pos() != 0 || d.Done() {
		t.Fatalf("seek to 0 landed at %d (done=%v)", d.Pos(), d.Done())
	}
	ev, ok := d.Event()
	if !ok || ev.Seq != 0 {
		t.Fatalf("cursor at 0 reports event %v (ok=%v), want seq 0", ev, ok)
	}
}

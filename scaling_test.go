package debugdet_test

import (
	"bytes"
	"context"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"debugdet"
	"debugdet/internal/record"
	"debugdet/internal/trace"
	"debugdet/sim"
)

// Linear-scaling guards for the load, seek and segmented-replay paths. They measure bytes
// allocated (runtime.MemStats.TotalAlloc), which for a deterministic,
// single-goroutine call is a property of the code, not of the machine —
// so they can gate tier-1 where a wall-clock bound could not.

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// recordBank records a perfect, checkpointed run of the bank scenario with
// the given number of transfers per thread (about 34 events each).
func recordBank(t *testing.T, transfers, interval int64) (*debugdet.Scenario, *debugdet.Recording) {
	t.Helper()
	eng := debugdet.New()
	s, err := eng.ByName("bank")
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err := eng.Record(context.Background(), s, debugdet.Perfect, debugdet.Options{
		Params:             debugdet.Params{"transfers": transfers},
		CheckpointInterval: interval,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, rec
}

// TestLoadCostIndependentOfCheckpointCount: loading the same run costs the
// same whether it carries four times as many checkpoints or not — stream
// histories are rehydrated in one pass over the events, not one pass per
// snapshot (which made the finer recording cost about 4x).
func TestLoadCostIndependentOfCheckpointCount(t *testing.T) {
	load := func(interval int64) (uint64, int) {
		_, rec := recordBank(t, 1500, interval)
		var buf bytes.Buffer
		if err := debugdet.SaveRecording(&buf, rec); err != nil {
			t.Fatal(err)
		}
		var loaded *debugdet.Recording
		n := allocated(func() {
			var err error
			if loaded, err = debugdet.LoadRecording(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatal(err)
			}
		})
		// Subtract what the snapshots' own live state costs: it is
		// legitimately proportional to their number.
		return n - uint64(rec.CheckpointBytes), len(loaded.Checkpoints)
	}
	fine, nFine := load(256)
	coarse, nCoarse := load(1024)
	t.Logf("load: %d bytes with %d checkpoints, %d bytes with %d", fine, nFine, coarse, nCoarse)
	if nFine < 3*nCoarse || nCoarse < 10 {
		t.Fatalf("%d checkpoints at interval 256, %d at 1024: not the 4x contrast this test needs", nFine, nCoarse)
	}
	if float64(fine) > 1.25*float64(coarse) {
		t.Fatalf("load allocates %d bytes with %d checkpoints, %d with %d: more than 1.25x apart",
			fine, nFine, coarse, nCoarse)
	}
}

// TestSecondSeekCostIndependentOfRecordingLength: once a recording's replay
// plan exists, a seek allocates for the restore and the suffix only —
// under 4 MB on a 100k-event recording, and no more than on a recording
// half as long when both seek the same distance past the same checkpoint.
func TestSecondSeekCostIndependentOfRecordingLength(t *testing.T) {
	const interval, target = 1024, 40*1024 + 100
	seekCost := func(transfers int64) (uint64, uint64) {
		s, rec := recordBank(t, transfers, interval)
		eng := debugdet.New()
		seek := func() {
			sess, err := eng.Seek(context.Background(), s, rec, target, debugdet.ReplayOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !sess.FromCheckpoint || sess.SuffixFrom != 40*1024 || sess.Pos() != target {
				t.Fatalf("seek resumed from %d (checkpoint=%v) and landed at %d", sess.SuffixFrom, sess.FromCheckpoint, sess.Pos())
			}
			sess.Close()
		}
		seek() // derives the recording's plan
		// The mean of five seeks in one measurement, every one counted:
		// allocated forces a GC, which empties the sync.Pool caches fmt
		// keeps per P, and the seek after it may refill them (about 2 KB
		// once per measurement, not the seek's own cost).
		const seeks = 5
		return allocated(func() {
			for range seeks {
				seek()
			}
		}) / seeks, rec.EventCount
	}
	short, nShort := seekCost(1500)
	long, nLong := seekCost(3100)
	t.Logf("second seek: %d bytes on %d events, %d bytes on %d events", short, nShort, long, nLong)
	if nLong < 100_000 || nShort > nLong*6/10 || nShort <= target {
		t.Fatalf("recordings have %d and %d events: not the contrast this test needs", nShort, nLong)
	}
	if long >= 4<<20 {
		t.Fatalf("second seek on a %d-event recording allocates %d bytes, want < 4 MB", nLong, long)
	}
	if float64(long) > 1.1*float64(short) {
		t.Fatalf("second seek allocates %d bytes on %d events but %d on %d: it scales with recording length",
			long, nLong, short, nShort)
	}
}

// TestSegmentedReplayPaysForThePrefixOnce: segmented replay restores one
// snapshot per worker, not one per segment — a restore re-executes its
// whole prefix, so one per segment is quadratic in the recording. One
// worker restores nothing and allocates what Replay does; two restore
// once.
func TestSegmentedReplayPaysForThePrefixOnce(t *testing.T) {
	s, rec := recordBank(t, 3100, 1024)
	eng := debugdet.New()
	ctx := context.Background()
	segmented := func(workers int) *debugdet.SegmentedResult {
		res, err := eng.ReplaySegmented(ctx, s, rec, debugdet.ReplayOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Ok || res.WorkSteps != rec.EventCount {
			t.Fatalf("workers=%d: ok=%v mismatch=%d worksteps=%d of %d", workers, res.Ok, res.Mismatch, res.WorkSteps, rec.EventCount)
		}
		return res
	}
	// Derive the recording's plan first, as the seek guard does.
	if res := segmented(2); res.Segments < 100 || res.Restores != 1 {
		t.Fatalf("two workers over %d segments restored %d snapshots, want 1 over at least 100", res.Segments, res.Restores)
	}
	var one *debugdet.SegmentedResult
	seg := allocated(func() { one = segmented(1) })
	if one.Restores != 0 {
		t.Fatalf("one worker restored %d snapshots of a recording that retains event 0", one.Restores)
	}
	plain := allocated(func() {
		if res, err := eng.Replay(ctx, s, rec, debugdet.ReplayOptions{}); err != nil || !res.Ok {
			t.Fatalf("replay: ok=%v err=%v", res != nil && res.Ok, err)
		}
	})
	t.Logf("%d events: segmented replay with one worker allocates %d bytes, plain replay %d", rec.EventCount, seg, plain)
	if float64(seg) > 1.25*float64(plain) {
		t.Fatalf("one-worker segmented replay allocates %d bytes, plain replay %d: more than 1.25x", seg, plain)
	}
}

// TestSegmentedStoreRestoresOncePerWorker: over a spill directory shaped
// like the benchmark's streaming workload (retention 8, so event 0 is
// evicted and every worker's run of segments opens with a restore), two
// workers restore two snapshots and eight restore all eight.
func TestSegmentedStoreRestoresOncePerWorker(t *testing.T) {
	eng := debugdet.New()
	ctx := context.Background()
	s, err := eng.ByName("dynokv-staleread")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := eng.RecordStreaming(ctx, s, debugdet.Options{
		Params: debugdet.Params{"rounds": 20},
		FlightRecorder: &debugdet.FlightRecorderOptions{
			Interval: 1024, RingSegments: 2, Retention: 8, SpillDir: filepath.Join(t.TempDir(), "spill"),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Evicted == 0 {
		t.Fatalf("%d events in %d segments: retention evicted nothing", rec.Events, rec.Segments)
	}
	for _, workers := range []int{2, 8} {
		res, err := eng.ReplaySegmentedStore(ctx, s, rec.Store, debugdet.ReplayOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Ok || res.Segments != 8 || res.Restores != workers {
			t.Fatalf("workers=%d: ok=%v segments=%d restores=%d, want 8 segments and %d restores",
				workers, res.Ok, res.Segments, res.Restores, workers)
		}
	}
}

// recordedRounds records a perfect run of a corpus scenario and returns its
// scheduling counters and how many threads it had.
func recordedRounds(t *testing.T, name string, p debugdet.Params) (rounds, evals uint64, threads int) {
	t.Helper()
	eng := debugdet.New()
	s, err := eng.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	_, view, err := eng.Record(context.Background(), s, debugdet.Perfect, debugdet.Options{Params: p})
	if err != nil {
		t.Fatal(err)
	}
	return view.Result.SchedRounds, view.Result.SchedEvals, len(view.Machine.Threads())
}

// parkedProgram runs debugdet.ParkedProgram (bench_test.go) to its end.
func parkedProgram(t *testing.T, threads, iters int) *sim.Result {
	m, main := debugdet.ParkedProgram(threads, iters)
	res := m.Run(main)
	if res.Outcome != sim.OutcomeOK {
		t.Fatalf("%d threads: outcome %v", threads, res.Outcome)
	}
	return res
}

// TestSchedulingRoundIndependentOfThreadCount: a scheduling round
// re-evaluates the threads whose status can have changed, not every live
// thread — on the streaming benchmark's scenario at most two per round with
// a hundred threads live (a full scan makes it a hundred), on bank hardly
// more than the one that ran, and no more with a thousand parked threads
// than with a hundred. Exact counts: SchedRounds and SchedEvals are
// deterministic.
func TestSchedulingRoundIndependentOfThreadCount(t *testing.T) {
	rounds, evals, threads := recordedRounds(t, "dynokv-staleread", debugdet.Params{"rounds": 400})
	t.Logf("dynokv-staleread{rounds:400}: %d threads, %d rounds, %d evaluations (%.2f per round)", threads, rounds, evals, float64(evals)/float64(rounds))
	if threads < 100 || rounds < 200000 {
		t.Fatalf("%d threads over %d rounds: not the streaming workload's shape", threads, rounds)
	}
	if evals > 2*rounds {
		t.Fatalf("%d evaluations for %d rounds: more than 2 per round", evals, rounds)
	}
	rounds, evals, _ = recordedRounds(t, "bank", debugdet.Params{"transfers": 4000})
	t.Logf("bank{transfers:4000}: %d rounds, %d evaluations (%.3f per round)", rounds, evals, float64(evals)/float64(rounds))
	if 10*evals > 11*rounds {
		t.Fatalf("%d evaluations for %d rounds: more than 1.1 per round", evals, rounds)
	}
	hundred, thousand := parkedProgram(t, 100, 2000), parkedProgram(t, 1000, 2000)
	perRound := func(r *sim.Result) float64 { return float64(r.SchedEvals) / float64(r.SchedRounds) }
	t.Logf("parked program: %.3f evaluations per round with 100 threads, %.3f with 1000", perRound(hundred), perRound(thousand))
	if perRound(thousand) > perRound(hundred) {
		t.Fatalf("evaluations per round grew with the thread count: %.3f at 100 threads, %.3f at 1000", perRound(hundred), perRound(thousand))
	}
}

// TestDebuggerBackCostIndependentOfCheckpointSource: stepping back in a
// debugger over a recording without checkpoints — which materializes its
// own — allocates what it does over one recorded with them at the same
// interval: the materialized snapshots' feeds are slices of one plan made
// with them, not a copy and re-derivation of the whole prefix per step
// (which made each step cost over 20x).
func TestDebuggerBackCostIndependentOfCheckpointSource(t *testing.T) {
	const interval = 256
	backCost := func(recorded int64) (uint64, uint64) {
		s, rec := recordBank(t, 1500, recorded)
		d, err := debugdet.New().Debug(context.Background(), s, rec, debugdet.DebugOptions{Interval: interval})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if got := len(d.Checkpoints()); got < 100 {
			t.Fatalf("session has %d checkpoints, want at least 100", got)
		}
		back := func() {
			if err := d.Back(10); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.SeekTo(rec.EventCount * 9 / 10); err != nil {
			t.Fatal(err)
		}
		back() // derives a recorded recording's plan
		return allocated(back), rec.EventCount
	}
	recorded, n := backCost(interval)
	materialized, _ := backCost(0)
	t.Logf("second Back(10) at 90%% of %d events: %d bytes over recorded checkpoints, %d over materialized ones", n, recorded, materialized)
	if materialized > 2*recorded {
		t.Fatalf("Back allocates %d bytes over materialized checkpoints, %d over recorded ones: more than 2x", materialized, recorded)
	}
}

// TestDebuggerStepsGrowTheTraceByDoubling: single steps forward from a
// checkpoint grow the session's trace by doubling, not by one event per
// step. Each Step is a Continue under the forced schedule, which reserves
// one more event; an exact-size reallocation per step made 3000 steps
// copy about 400 MB.
func TestDebuggerStepsGrowTheTraceByDoubling(t *testing.T) {
	s, rec := recordBank(t, 3100, 4096)
	d, err := debugdet.New().Debug(context.Background(), s, rec, debugdet.DebugOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.SeekTo(4096); err != nil {
		t.Fatal(err)
	}
	const steps = 3000
	n := allocated(func() {
		for range steps {
			if err := d.Step(1); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("%d single steps from the checkpoint at 4096 allocate %d bytes", steps, n)
	if n >= 4<<20 {
		t.Fatalf("%d single steps allocate %d bytes, want < 4 MB", steps, n)
	}
}

// sharesArray reports whether two event slices use the same backing array
// anywhere in their capacities.
func sharesArray(a, b []trace.Event) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	size := unsafe.Sizeof(trace.Event{})
	a0 := uintptr(unsafe.Pointer(unsafe.SliceData(a)))
	b0 := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return a0 < b0+uintptr(cap(b))*size && b0 < a0+uintptr(cap(a))*size
}

// TestRunEventsStoredOnce: a long run keeps one copy of its events, sized
// to fit. A perfect recording's Full is the run's trace itself; a partial
// one is a single exact-size projection of it; a forced replay allocates
// its trace at the recorded length, and a seek only for its suffix.
func TestRunEventsStoredOnce(t *testing.T) {
	ctx := context.Background()
	eng := debugdet.New()
	s, rec := recordBank(t, 3100, 1024)

	t.Run("perfect shares the trace", func(t *testing.T) {
		rec, view, err := eng.Record(ctx, s, debugdet.Perfect, debugdet.Options{Params: debugdet.Params{"transfers": 100}})
		if err != nil {
			t.Fatal(err)
		}
		if &rec.Full[0] != &view.Trace.Events[0] || len(rec.Full) != len(view.Trace.Events) {
			t.Fatal("perfect recording's Full is a copy of the run's trace")
		}
		if cap(rec.Full) != len(rec.Full) {
			t.Fatalf("perfect Full has cap %d for %d events", cap(rec.Full), len(rec.Full))
		}
	})

	for _, model := range []debugdet.Model{debugdet.Value, debugdet.DebugRCSE} {
		t.Run(model.String()+" is one exact copy", func(t *testing.T) {
			rec, view, err := eng.Record(ctx, s, model, debugdet.Options{Params: debugdet.Params{"transfers": 100}})
			if err != nil {
				t.Fatal(err)
			}
			if len(rec.Full) == 0 || len(rec.Full) == len(view.Trace.Events) {
				t.Fatalf("%d of %d events full: not a partial recording", len(rec.Full), len(view.Trace.Events))
			}
			if cap(rec.Full) != len(rec.Full) {
				t.Fatalf("Full has cap %d for %d events", cap(rec.Full), len(rec.Full))
			}
			if sharesArray(rec.Full, view.Trace.Events) {
				t.Fatal("partial Full shares an array with the run's trace")
			}
		})
	}

	t.Run("full after k full events", func(t *testing.T) {
		const k = 50
		full := func(e *trace.Event) bool { return e.Seq < k || e.Seq%3 == 0 }
		run, _ := record.Run(s, 1, nil, 0, 0)
		rec, view := record.Project(s, run, nil, record.Value, &record.Policy{Name: "k-full", Full: full})
		var want []trace.Event
		for i := range view.Trace.Events {
			if full(&view.Trace.Events[i]) {
				want = append(want, view.Trace.Events[i])
			}
		}
		if len(want) <= k || len(want) == len(view.Trace.Events) {
			t.Fatalf("%d of %d events full: the policy never turned partial", len(want), len(view.Trace.Events))
		}
		if !reflect.DeepEqual(rec.Full, want) {
			t.Fatalf("Full holds %d events, not the trace's %d full-level ones in order", len(rec.Full), len(want))
		}
	})

	t.Run("replay allocates the recorded length", func(t *testing.T) {
		var buf bytes.Buffer
		if err := debugdet.SaveRecording(&buf, rec); err != nil {
			t.Fatal(err)
		}
		loaded, err := debugdet.LoadRecording(&buf)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Replay(ctx, s, loaded, debugdet.ReplayOptions{})
		if err != nil || !res.Ok {
			t.Fatalf("replay: ok=%v err=%v", res != nil && res.Ok, err)
		}
		ev := res.View.Trace.Events
		if uint64(len(ev)) != loaded.EventCount || cap(ev) != len(ev) {
			t.Fatalf("replayed trace has len %d, cap %d for %d recorded events", len(ev), cap(ev), loaded.EventCount)
		}
	})

	t.Run("a seek reserves only its suffix", func(t *testing.T) {
		target := rec.EventCount/2 + 100
		seek := func() {
			sess, err := eng.Seek(ctx, s, rec, target, debugdet.ReplayOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !sess.FromCheckpoint || sess.Pos() != target {
				t.Fatalf("seek landed at %d (checkpoint=%v), want %d", sess.Pos(), sess.FromCheckpoint, target)
			}
			sess.Close()
		}
		seek() // derives the recording's plan
		if n := allocated(seek); n >= 4<<20 {
			t.Fatalf("seek to %d of %d events allocates %d bytes, want < 4 MB", target, rec.EventCount, n)
		}
	})
}

package flightrec_test

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"debugdet/internal/flightrec"
	"debugdet/internal/record"
	"debugdet/internal/replay"
	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
	"debugdet/internal/wire"
	"debugdet/internal/workload"
)

// flightScenarios is the integration corpus slice: one small scenario,
// one with real message/stream traffic, and one whose trace carries
// simulated-disk operations (crash-restart WAL recovery).
func flightScenarios(t *testing.T) []*scenario.Scenario {
	t.Helper()
	out := []*scenario.Scenario{workload.Bank()}
	for _, name := range []string{"dynokv-staleread", "disk-tornwal"} {
		s, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

// plainRecording is the reference: the monolithic perfect recording of the
// same (scenario, seed). Flight recording must not perturb the schedule,
// so its event stream is expected to be identical.
func plainRecording(t *testing.T, s *scenario.Scenario) *record.Recording {
	t.Helper()
	rec, _, err := record.Record(s, record.Perfect, s.DefaultSeed, nil)
	if err != nil {
		t.Fatalf("%s: record: %v", s.Name, err)
	}
	return rec
}

func flightRecord(t *testing.T, s *scenario.Scenario, o flightrec.Options) *flightrec.RecordResult {
	t.Helper()
	if o.SpillDir == "" {
		o.SpillDir = filepath.Join(t.TempDir(), "spill")
	}
	res, err := flightrec.Record(s, s.DefaultSeed, nil, o)
	if err != nil {
		t.Fatalf("%s: flight record: %v", s.Name, err)
	}
	return res
}

func assertEventsMatch(t *testing.T, ctx string, got, want []trace.Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if !replay.EventsMatch(&got[i], &want[i]) {
			t.Fatalf("%s: event %d differs:\ngot  %+v\nwant %+v", ctx, i, got[i], want[i])
		}
	}
}

// TestFlightRecordMatchesRecording: a flight-recorded run reproduces the
// monolithic recording's event stream, schedule and terminal identity
// exactly — streaming changes where bytes go, not what happens — and its
// restore inputs (feeds, boundary stream histories, recorded inputs) are
// those of a checkpointed recording of the same run, at every boundary.
func TestFlightRecordMatchesRecording(t *testing.T) {
	for _, s := range flightScenarios(t) {
		t.Run(s.Name, func(t *testing.T) {
			plain := plainRecording(t, s)
			interval := uint64(len(plain.Full)) / 6
			if interval < 4 {
				interval = 4
			}
			res := flightRecord(t, s, flightrec.Options{Interval: interval})
			st := res.Store

			if res.Events != uint64(len(plain.Full)) {
				t.Fatalf("flight recorded %d events, plain recording has %d", res.Events, len(plain.Full))
			}
			if res.Failed != plain.Failed || res.FailureSig != plain.FailureSig {
				t.Fatalf("terminal identity (%v, %q), plain recording has (%v, %q)",
					res.Failed, res.FailureSig, plain.Failed, plain.FailureSig)
			}
			meta := st.Meta()
			if meta.Scenario != s.Name || meta.Model != record.Perfect {
				t.Fatalf("meta %+v", meta)
			}
			if meta.EventCount != uint64(len(plain.Full)) {
				t.Fatalf("meta.EventCount %d, want %d", meta.EventCount, len(plain.Full))
			}
			if !st.Finalized() {
				t.Fatal("store not finalized")
			}

			lo, hi := flightrec.Retained(st)
			if lo != 0 || hi != meta.EventCount {
				t.Fatalf("retained [%d, %d), want [0, %d)", lo, hi, meta.EventCount)
			}
			evs, err := flightrec.EventRange(st, 0, hi)
			if err != nil {
				t.Fatal(err)
			}
			assertEventsMatch(t, "full range", evs, plain.Full)

			sched, err := st.Sched(0)
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := plain.SchedFrom(0); !reflect.DeepEqual(sched, want) {
				t.Fatal("schedule differs from plain recording")
			}

			rec := flightrec.RecordCheckpointed(t, s, interval)
			stIn, err := st.Inputs()
			if err != nil {
				t.Fatal(err)
			}
			recIn, _ := rec.Inputs()
			if !reflect.DeepEqual(stIn.(*vm.MapInputs).Values, recIn.(*vm.MapInputs).Values) {
				t.Fatal("recorded inputs differ from the checkpointed recording's")
			}
			for _, q := range st.SnapshotSeqs() {
				snap, err := st.BestSnapshot(q)
				if err != nil {
					t.Fatal(err)
				}
				cp, _ := rec.BestSnapshot(q)
				if cp == nil || cp.Seq != q {
					t.Fatalf("the checkpointed recording has no checkpoint at %d", q)
				}
				if !reflect.DeepEqual(snap.Streams, cp.Streams) {
					t.Fatalf("boundary %d: stream histories differ from the recording's", q)
				}
				got, err := st.Feeds(snap)
				if err != nil {
					t.Fatal(err)
				}
				want, err := rec.Feeds(cp)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("boundary %d: feeds differ from the recording's", q)
				}
			}

			// Segment table sanity: contiguous, boundaries on the interval.
			infos := st.Segments()
			if len(infos) < 3 {
				t.Fatalf("only %d segments; interval %d over %d events should rotate more", len(infos), interval, res.Events)
			}
			for i, si := range infos {
				if i > 0 && si.From != infos[i-1].To {
					t.Fatalf("segment %d starts at %d, previous ends at %d", i, si.From, infos[i-1].To)
				}
				if si.From%interval != 0 {
					t.Fatalf("segment %d starts at %d, not on interval %d", i, si.From, interval)
				}
			}
			if res.Spilled != len(infos) || res.Evicted != 0 {
				t.Fatalf("spilled %d evicted %d, store retains %d", res.Spilled, res.Evicted, len(infos))
			}
		})
	}
}

// TestLogBytesAreTheSegmentEventSections: with retention off, the log
// bytes the flight recorder charged are the bytes of the spilled segments'
// event sections, less their counts: each segment file less what it holds
// besides its events.
func TestLogBytesAreTheSegmentEventSections(t *testing.T) {
	for _, s := range flightScenarios(t) {
		t.Run(s.Name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "spill")
			res := flightRecord(t, s, flightrec.Options{Interval: 64, SpillDir: dir})
			var sections int64
			for _, si := range res.Store.Segments() {
				data, err := os.ReadFile(filepath.Join(dir, si.File))
				if err != nil {
					t.Fatal(err)
				}
				seg, err := flightrec.DecodeSegment(bytes.NewReader(data))
				if err != nil {
					t.Fatal(err)
				}
				// The segment without its events still writes a count of 0.
				rest, err := flightrec.EncodeSegment(io.Discard, &flightrec.Segment{SegmentInfo: seg.SegmentInfo, Snap: seg.Snap})
				if err != nil {
					t.Fatal(err)
				}
				sections += int64(len(data)) - rest + 1 - int64(wire.UvarintLen(uint64(len(seg.Events))))
			}
			if res.Evicted != 0 || res.Segments < 3 || sections != res.LogBytes {
				t.Fatalf("%d segments (%d evicted) hold %d bytes of events; the recorder charged %d",
					res.Segments, res.Evicted, sections, res.LogBytes)
			}
		})
	}
}

// TestFlightSeekEquivalence: seeking into a spill directory restores the
// exact machine state of the recorded run, and the suffix replayed from
// there is bit-identical to the corresponding slice of the plain
// recording (the store-backed version of the seek equivalence contract).
func TestFlightSeekEquivalence(t *testing.T) {
	for _, s := range flightScenarios(t) {
		t.Run(s.Name, func(t *testing.T) {
			plain := plainRecording(t, s)
			interval := uint64(len(plain.Full)) / 5
			if interval < 4 {
				interval = 4
			}
			res := flightRecord(t, s, flightrec.Options{Interval: interval})
			st := res.Store

			seqs := st.SnapshotSeqs()
			if len(seqs) == 0 {
				t.Fatalf("no boundary snapshots with interval %d over %d events", interval, res.Events)
			}
			for _, q := range seqs {
				// Mid-segment target: the boundary restores, then a short
				// replayed remainder lands exactly on target.
				target := q + 3
				if target > res.Events {
					target = res.Events
				}
				sess, err := replay.Seek(s, st, target, replay.Options{})
				if err != nil {
					t.Fatalf("seek %d: %v", target, err)
				}
				if !sess.FromCheckpoint || sess.SuffixFrom != q {
					t.Fatalf("seek %d: FromCheckpoint=%v SuffixFrom=%d, want boundary %d",
						target, sess.FromCheckpoint, sess.SuffixFrom, q)
				}
				if sess.Pos() != target {
					t.Fatalf("seek %d: positioned at %d", target, sess.Pos())
				}
				view, ok := sess.RunToEnd()
				if !ok {
					t.Fatalf("seek %d: replay did not reproduce the run", target)
				}
				assertEventsMatch(t, "suffix", view.Trace.Events, plain.Full[q:])
			}

			// Boundary state parity: the machine paused exactly at a
			// boundary equals the boundary snapshot.
			q := seqs[len(seqs)-1]
			cp, err := st.BestSnapshot(q)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := replay.Seek(s, st, q, replay.Options{})
			if err != nil {
				t.Fatal(err)
			}
			got := sess.Machine.Snapshot(vm.NoRunningThread)
			if err := got.EqualState(cp); err != nil {
				t.Fatalf("state at boundary %d differs from snapshot: %v", q, err)
			}
			sess.Close()
		})
	}
}

// TestFlightSegmentedWorkerInvariance: segmented replay over a spill
// directory validates, and its result is deep-equal — event times and
// final cycle counts included — for every worker count: sequential, uneven
// chunks, one chunk per segment and more workers than segments. Only
// Restores varies: one per chunk, less the chunk that starts at event 0.
func TestFlightSegmentedWorkerInvariance(t *testing.T) {
	for _, s := range flightScenarios(t) {
		t.Run(s.Name, func(t *testing.T) {
			plain := plainRecording(t, s)
			interval := uint64(len(plain.Full)) / 5
			if interval < 4 {
				interval = 4
			}
			st := flightRecord(t, s, flightrec.Options{Interval: interval}).Store
			stitched := segmentedInvariant(t, s, st, 1)
			assertEventsMatch(t, "stitched", stitched, plain.Full)
		})
	}
	// Under retention the tail does not start at event 0, so every chunk
	// restores — the first included.
	t.Run("retained-tail", func(t *testing.T) {
		s, plain, res := retainedRecording(t, 6)
		stitched := segmentedInvariant(t, s, res.Store, 0)
		lo, _ := flightrec.Retained(res.Store)
		assertEventsMatch(t, "stitched tail", stitched, plain.Full[lo:])
	})
}

// segmentedInvariant replays the store with every worker count of the
// sweep, fails unless the results agree in everything but Restores, and
// returns the stitched events. fresh is the number of chunks that start
// without a restore (1 when the store retains event 0).
func segmentedInvariant(t *testing.T, s *scenario.Scenario, st flightrec.Store, fresh int) []trace.Event {
	t.Helper()
	type fingerprint struct {
		Ok        bool
		Segments  int
		Mismatch  int64
		WorkSteps uint64
		Note      string
		Events    []trace.Event
		Result    vm.Result
	}
	n := len(st.Segments())
	var base *fingerprint
	for _, workers := range []int{1, 2, 3, n, n + 5} {
		sr, err := replay.Segmented(s, st, replay.Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !sr.Ok || sr.Mismatch != -1 {
			t.Fatalf("workers=%d: Ok=%v Mismatch=%d", workers, sr.Ok, sr.Mismatch)
		}
		if want := min(workers, n) - fresh; sr.Restores != want {
			t.Fatalf("workers=%d over %d segments: %d restores, want %d", workers, n, sr.Restores, want)
		}
		fp := &fingerprint{sr.Ok, sr.Segments, sr.Mismatch, sr.WorkSteps, sr.Note, sr.View.Trace.Events, *sr.View.Result}
		fp.Result.Trace = nil
		// One machine's scheduling counters, from its restore on: they
		// depend on the chunking by design.
		fp.Result.SchedRounds, fp.Result.SchedEvals, fp.Result.SchedHandoffs = 0, 0, 0
		if base == nil {
			base = fp
		} else if !reflect.DeepEqual(fp, base) {
			t.Fatalf("workers=%d: result differs from workers=1", workers)
		}
	}
	return base.Events
}

// TestFlightDegenerateLayouts pins the two degenerate segment layouts:
// a run shorter than one interval (single segment, no snapshots — seek
// falls back to replay-from-start) and a single-checkpoint run (two
// segments, one snapshot).
func TestFlightDegenerateLayouts(t *testing.T) {
	s := workload.Bank()
	plain := plainRecording(t, s)
	n := uint64(len(plain.Full))

	t.Run("checkpoint-free", func(t *testing.T) {
		res := flightRecord(t, s, flightrec.Options{Interval: 2 * n})
		st := res.Store
		if got := st.Segments(); len(got) != 1 || got[0].From != 0 || got[0].To != n {
			t.Fatalf("segments %+v, want one [0, %d)", got, n)
		}
		if seqs := st.SnapshotSeqs(); len(seqs) != 0 {
			t.Fatalf("snapshots %v, want none", seqs)
		}
		sess, err := replay.Seek(s, st, n/2, replay.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if sess.FromCheckpoint {
			t.Fatal("checkpoint-free store seeked from a checkpoint")
		}
		if sess.Pos() != n/2 {
			t.Fatalf("positioned at %d, want %d", sess.Pos(), n/2)
		}
		view, ok := sess.RunToEnd()
		if !ok {
			t.Fatal("fallback replay did not reproduce the run")
		}
		assertEventsMatch(t, "fallback", view.Trace.Events, plain.Full)

		sr, err := replay.Segmented(s, st, replay.Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !sr.Ok || sr.Segments != 1 {
			t.Fatalf("segmented: Ok=%v Segments=%d", sr.Ok, sr.Segments)
		}
	})

	t.Run("single-checkpoint", func(t *testing.T) {
		interval := n - 2
		res := flightRecord(t, s, flightrec.Options{Interval: interval})
		st := res.Store
		if got := st.Segments(); len(got) != 2 {
			t.Fatalf("%d segments, want 2", len(got))
		}
		seqs := st.SnapshotSeqs()
		if len(seqs) != 1 || seqs[0] != interval {
			t.Fatalf("snapshots %v, want [%d]", seqs, interval)
		}
		// Before the lone boundary: falls back to the start.
		sess, err := replay.Seek(s, st, interval-1, replay.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if sess.FromCheckpoint {
			t.Fatal("target before the only checkpoint restored from it")
		}
		sess.Close()
		// At and past it: restores.
		sess, err = replay.Seek(s, st, interval, replay.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !sess.FromCheckpoint || sess.SuffixFrom != interval {
			t.Fatalf("FromCheckpoint=%v SuffixFrom=%d, want restore at %d", sess.FromCheckpoint, sess.SuffixFrom, interval)
		}
		view, ok := sess.RunToEnd()
		if !ok {
			t.Fatal("replay did not reproduce the run")
		}
		assertEventsMatch(t, "tail", view.Trace.Events, plain.Full[interval:])
	})
}

// TestFlightRetention: with a retention cap old segments are evicted from
// disk, yet the retained tail stays seekable and pre-tail targets still
// work via the never-truncated feed log.
func TestFlightRetention(t *testing.T) {
	stale, err := workload.ByName("dynokv-staleread")
	if err != nil {
		t.Fatal(err)
	}
	plain := plainRecording(t, stale)
	n := uint64(len(plain.Full))
	interval := n / 10
	if interval < 4 {
		interval = 4
	}
	res := flightRecord(t, stale, flightrec.Options{Interval: interval, Retention: 3})
	st := res.Store

	if res.Evicted == 0 {
		t.Fatalf("retention 3 over %d segments evicted nothing", res.Segments)
	}
	if got := len(st.Segments()); got > 3 {
		t.Fatalf("store retains %d segments, cap is 3", got)
	}
	lo, hi := flightrec.Retained(st)
	if lo == 0 || hi != n {
		t.Fatalf("retained [%d, %d), want a proper tail ending at %d", lo, hi, n)
	}

	// The retained tail seeks from its boundary snapshots.
	sess, err := replay.Seek(stale, st, hi-1, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sess.FromCheckpoint || sess.SuffixFrom < lo {
		t.Fatalf("tail seek: FromCheckpoint=%v SuffixFrom=%d, retained from %d", sess.FromCheckpoint, sess.SuffixFrom, lo)
	}
	view, ok := sess.RunToEnd()
	if !ok {
		t.Fatal("tail replay did not reproduce the run")
	}
	assertEventsMatch(t, "tail suffix", view.Trace.Events, plain.Full[sess.SuffixFrom:])

	// A pre-tail target falls back to the feed log: full replay from 0.
	sess, err = replay.Seek(stale, st, lo/2, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sess.FromCheckpoint {
		t.Fatal("evicted-range target restored from a checkpoint")
	}
	if sess.Pos() != lo/2 {
		t.Fatalf("positioned at %d, want %d", sess.Pos(), lo/2)
	}
	view, ok = sess.RunToEnd()
	if !ok {
		t.Fatal("pre-tail replay did not reproduce the run")
	}
	assertEventsMatch(t, "pre-tail", view.Trace.Events, plain.Full)

	// Segmented replay validates the retained tail, worker-invariant.
	var ref *replay.SegmentedResult
	for _, workers := range []int{1, 4} {
		sr, err := replay.Segmented(stale, st, replay.Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !sr.Ok || sr.Mismatch != -1 {
			t.Fatalf("workers=%d: Ok=%v Mismatch=%d", workers, sr.Ok, sr.Mismatch)
		}
		if ref == nil {
			ref = sr
			assertEventsMatch(t, "stitched tail", sr.View.Trace.Events, plain.Full[lo:])
			continue
		}
		if !reflect.DeepEqual(sr.View.Trace.Events, ref.View.Trace.Events) ||
			sr.Segments != ref.Segments || sr.WorkSteps != ref.WorkSteps {
			t.Fatalf("workers=%d: result differs from workers=1", workers)
		}
	}

	// EventRange outside the retained tail must refuse, not fabricate.
	if _, err := flightrec.EventRange(st, 0, lo+1); err == nil {
		t.Fatal("EventRange over the evicted prefix succeeded")
	}
}

// TestStoreDebugger drives the interactive session over a spill directory:
// cursor navigation across checkpoints, event inspection inside the
// retained range, and clamping outside it.
func TestStoreDebugger(t *testing.T) {
	s := workload.Bank()
	plain := plainRecording(t, s)
	n := uint64(len(plain.Full))
	interval := n / 4
	if interval < 4 {
		interval = 4
	}
	res := flightRecord(t, s, flightrec.Options{Interval: interval})
	st := res.Store

	d, err := replay.NewDebugger(s, st, replay.DebugOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Len() != n {
		t.Fatalf("Len %d, want %d", d.Len(), n)
	}
	if !reflect.DeepEqual(d.Checkpoints(), st.SnapshotSeqs()) {
		t.Fatalf("Checkpoints %v, store has %v", d.Checkpoints(), st.SnapshotSeqs())
	}
	for _, target := range []uint64{0, 1, interval - 1, interval, interval + 2, n / 2, n - 1, n} {
		if err := d.SeekTo(target); err != nil {
			t.Fatalf("SeekTo %d: %v", target, err)
		}
		if d.Pos() != target {
			t.Fatalf("SeekTo %d: cursor at %d", target, d.Pos())
		}
		if target < n {
			ev, ok := d.Event()
			if !ok {
				t.Fatalf("no event at %d", target)
			}
			if !replay.EventsMatch(&ev, &plain.Full[target]) {
				t.Fatalf("event at %d differs from recording", target)
			}
		}
	}
	if err := d.Back(7); err != nil {
		t.Fatal(err)
	}
	if d.Pos() != n-7 {
		t.Fatalf("Back(7) landed at %d, want %d", d.Pos(), n-7)
	}
	evs := d.Events(0, n)
	assertEventsMatch(t, "debugger window", evs, plain.Full)
}

// TestOpenRejectsMissing: opening a directory with no manifest (or none at
// all) errors instead of inventing an empty store.
func TestOpenRejectsMissing(t *testing.T) {
	if _, err := flightrec.Open(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("Open on a nonexistent directory succeeded")
	}
	if _, err := flightrec.Open(t.TempDir()); err == nil {
		t.Fatal("Open on an empty directory succeeded")
	}
}

// TestOptionsValidate pins the validation contract: a negative retention
// is rejected by Validate and by Record — before the spill directory is
// created, so a rejected recording leaves no artifact.
func TestOptionsValidate(t *testing.T) {
	if err := (flightrec.Options{}).Validate(); err != nil {
		t.Fatalf("zero options rejected: %v", err)
	}
	if err := (flightrec.Options{Retention: -1}).Validate(); err == nil || !strings.Contains(err.Error(), "Retention") {
		t.Fatalf("negative Retention: err = %v", err)
	}
	s := workload.Bank()
	dir := filepath.Join(t.TempDir(), "spill")
	if _, err := flightrec.Record(s, s.DefaultSeed, nil, flightrec.Options{SpillDir: dir, Retention: -5}); err == nil || !strings.Contains(err.Error(), "Retention") {
		t.Fatalf("Record with negative Retention: err = %v", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("rejected Record still created %s", dir)
	}
}

// TestStoppedRunIsReadable: a run stopped between two rotations, with no
// OnFinish and no Finalize — a recording process killed mid-run — leaves a
// spill directory that Open reads as the run up to its last seal: the
// manifest lists every segment sealed so far, and a seek into the last one
// restores from its boundary snapshot and replays a plain recording's
// events. At an interval of 8192 a segment's feed entries outgrow the feed
// log's 64 KiB buffer, so the log also holds entries past the manifest, the
// last one torn. This is the process-crash window only: nothing calls
// Sync, so a machine crash can still lose what the page cache held
// (ROADMAP item 4(b)).
func TestStoppedRunIsReadable(t *testing.T) {
	s, err := workload.ByName("dynokv-staleread")
	if err != nil {
		t.Fatal(err)
	}
	params := scenario.Params{"rounds": 50}
	plain, _, err := record.Record(s, record.Perfect, s.DefaultSeed, params)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		interval uint64
		tail     bool // the feed log runs past the manifest
	}{{4096, false}, {8192, true}} {
		interval := tc.interval
		t.Run(fmt.Sprint(interval), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "spill")
			var rec *flightrec.Recorder
			m := s.Start(scenario.ExecOptions{Seed: s.DefaultSeed, Params: params, DisableTrace: true,
				ObserverFactory: func(m *vm.Machine) []vm.Observer {
					if rec, err = flightrec.NewRecorder(m, s.Name, s.DefaultSeed, s.DefaultParams.Clone(params), flightrec.Options{Interval: interval, SpillDir: dir}); err != nil {
						t.Fatal(err)
					}
					return []vm.Observer{rec}
				}})
			stop := 3*interval + interval*9/10
			if stop >= uint64(len(plain.Full)) {
				t.Fatalf("the run has %d events, the test stops it at %d", len(plain.Full), stop)
			}
			m.Continue(stop)
			defer func() {
				vm.End(m) // abandons the run; Finalize closes the feed log
				if err := rec.Finalize(false, ""); err != nil {
					t.Error(err)
				}
			}()

			st, err := flightrec.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			sealed := 3 * interval
			segs := st.Segments()
			if st.Finalized() || len(segs) != 3 || st.Meta().EventCount != sealed || st.FeedCount() != sealed {
				t.Fatalf("stopped at %d: finalized=%v, %d segments, %d events, %d feed entries; want 3 segments and %d events",
					stop, st.Finalized(), len(segs), st.Meta().EventCount, st.FeedCount(), sealed)
			}
			for i, si := range segs {
				if si.From != uint64(i)*interval || si.To != si.From+interval {
					t.Fatalf("segment %d covers [%d, %d)", i, si.From, si.To)
				}
			}
			fi, err := os.Stat(filepath.Join(dir, flightrec.FeedLogName))
			if err != nil {
				t.Fatal(err)
			}
			if tail := fi.Size() > st.FeedBytes(); tail != tc.tail {
				t.Fatalf("feed log of %d bytes, the manifest declares %d: want a tail past it %v", fi.Size(), st.FeedBytes(), tc.tail)
			}
			last := segs[len(segs)-1]
			sess, err := replay.Seek(s, st, sealed, replay.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			if !sess.FromCheckpoint || sess.SuffixFrom != last.From || sess.Pos() != sealed {
				t.Fatalf("seek %d: FromCheckpoint=%v SuffixFrom=%d Pos=%d, want a restore at %d",
					sealed, sess.FromCheckpoint, sess.SuffixFrom, sess.Pos(), last.From)
			}
			assertEventsMatch(t, "last sealed segment", sess.Machine.Trace().Events, plain.Full[last.From:sealed])
		})
	}
}

// retainedRecording flight-records dynokv-staleread with the given
// retention cap and enough segments that eviction actually happens.
func retainedRecording(t *testing.T, retention int) (*scenario.Scenario, *record.Recording, *flightrec.RecordResult) {
	t.Helper()
	s, err := workload.ByName("dynokv-staleread")
	if err != nil {
		t.Fatal(err)
	}
	plain := plainRecording(t, s)
	interval := uint64(len(plain.Full)) / 10
	if interval < 4 {
		interval = 4
	}
	res := flightRecord(t, s, flightrec.Options{Interval: interval, Retention: retention})
	if res.Evicted == 0 {
		t.Fatalf("retention %d over %d segments evicted nothing", retention, res.Segments)
	}
	return s, plain, res
}

// TestRetentionOne pins the most aggressive retention cap: a single
// retained segment. Seeks into that segment restore from its boundary
// snapshot; anything earlier falls back to the feed log and replays from
// the start — nothing is fabricated from the evicted prefix.
func TestRetentionOne(t *testing.T) {
	s, plain, res := retainedRecording(t, 1)
	st := res.Store
	n := uint64(len(plain.Full))
	segs := st.Segments()
	if len(segs) != 1 {
		t.Fatalf("store retains %d segments, cap is 1", len(segs))
	}
	lo, hi := flightrec.Retained(st)
	if lo != segs[0].From || hi != n {
		t.Fatalf("retained [%d, %d), manifest tail is [%d, %d)", lo, hi, segs[0].From, n)
	}

	// A target at the very first retained event seeks from the segment's
	// own boundary snapshot.
	sess, err := replay.Seek(s, st, lo, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sess.FromCheckpoint || sess.SuffixFrom != lo {
		t.Fatalf("oldest-retained seek: FromCheckpoint=%v SuffixFrom=%d, want snapshot at %d", sess.FromCheckpoint, sess.SuffixFrom, lo)
	}
	view, ok := sess.RunToEnd()
	if !ok {
		t.Fatal("tail replay did not reproduce the run")
	}
	assertEventsMatch(t, "retention-1 tail", view.Trace.Events, plain.Full[lo:])

	// One event earlier is evicted: full replay from 0, same events.
	sess, err = replay.Seek(s, st, lo-1, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sess.FromCheckpoint {
		t.Fatal("evicted-range target restored from a checkpoint")
	}
	if view, ok = sess.RunToEnd(); !ok {
		t.Fatal("pre-tail replay did not reproduce the run")
	}
	assertEventsMatch(t, "retention-1 full", view.Trace.Events, plain.Full)
}

// TestSeekRacesEviction pins what happens when retention evicts the
// oldest retained segment between a debugger's manifest read and its
// segment read (the recorder and a debugger share the spill directory, so
// this interleaving is reachable). A seek that already loaded the segment
// keeps working from the cache; a seek that has not errors cleanly.
func TestSeekRacesEviction(t *testing.T) {
	s, plain, res := retainedRecording(t, 3)
	st := res.Store
	oldest := st.Segments()[0]
	target := oldest.From

	// Load the oldest retained segment into the store's cache, then evict
	// its file out from under the store.
	if _, err := st.Events(0); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(st.Dir(), oldest.File)); err != nil {
		t.Fatal(err)
	}

	// The cached store is immune to the eviction.
	sess, err := replay.Seek(s, st, target, replay.Options{})
	if err != nil {
		t.Fatalf("seek after cached eviction: %v", err)
	}
	view, ok := sess.RunToEnd()
	if !ok {
		t.Fatal("cached-segment replay did not reproduce the run")
	}
	assertEventsMatch(t, "cached tail", view.Trace.Events, plain.Full[sess.SuffixFrom:])

	// A store opened after the eviction sees the stale manifest: the same
	// seek must fail with a clear error, not fabricate events.
	st2, err := flightrec.Open(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := replay.Seek(s, st2, target, replay.Options{}); err == nil || !strings.Contains(err.Error(), oldest.File) {
		t.Fatalf("seek into evicted segment: err = %v, want mention of %s", err, oldest.File)
	}
}

// TestManifestWithEvictedSegment: a manifest entry whose .ddseg is gone
// (deleted out of band, or a crash between eviction and manifest rewrite)
// keeps the store openable — the manifest alone is intact — but reads of
// the missing segment error cleanly and the surviving segments still
// serve events.
func TestManifestWithEvictedSegment(t *testing.T) {
	_, plain, res := retainedRecording(t, 3)
	st := res.Store
	segs := st.Segments()
	if len(segs) < 2 {
		t.Fatalf("need at least 2 retained segments, have %d", len(segs))
	}
	gone := segs[0]
	if err := os.Remove(filepath.Join(st.Dir(), gone.File)); err != nil {
		t.Fatal(err)
	}

	st2, err := flightrec.Open(st.Dir())
	if err != nil {
		t.Fatalf("open with dangling manifest entry: %v", err)
	}
	if _, err := st2.Events(0); err == nil || !strings.Contains(err.Error(), "open segment") {
		t.Fatalf("Events on evicted segment: err = %v", err)
	}
	last := len(segs) - 1
	evs, err := st2.Events(last)
	if err != nil {
		t.Fatalf("Events on surviving segment: %v", err)
	}
	assertEventsMatch(t, "surviving segment", evs, plain.Full[segs[last].From:segs[last].To])
	if _, err := st2.BestSnapshot(gone.To - 1); err == nil {
		t.Fatal("BestSnapshot inside the evicted segment succeeded")
	}
}

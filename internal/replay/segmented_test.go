package replay

import (
	"fmt"
	"reflect"
	"testing"

	"debugdet/internal/flightrec"
	"debugdet/internal/record"
	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
	"debugdet/internal/workload"
)

// segmentedPerSegment is the segmented replay this package shipped before
// workers took contiguous chunks: every segment restores its own boundary
// snapshot and replays one interval, and the stitched trace is validated
// in one sequential pass. It is kept, for tests only, as the reference the
// chunked Segmented must agree with on every input — Restores aside,
// which it always reports as one per snapshot-opened segment.
func segmentedPerSegment(s *scenario.Scenario, st flightrec.Store, o Options) (*SegmentedResult, error) {
	infos := st.Segments()
	n := len(infos)
	res := &SegmentedResult{Segments: n, Mismatch: -1, Note: fmt.Sprintf("segmented replay over %d checkpoints", n-1)}
	var stitched []trace.Event
	var final *scenario.RunView
	for i := range infos {
		sess, err := Seek(s, st, infos[i].From, o)
		if err != nil {
			return nil, fmt.Errorf("segment %d at %d: %w", i, infos[i].From, err)
		}
		if sess.FromCheckpoint {
			res.Restores++
		}
		if i+1 < n {
			sess.Continue(infos[i+1].From)
			stitched = append(stitched, sess.Machine.Trace().Events...)
			sess.Close()
			continue
		}
		final, res.Ok = sess.RunToEnd()
		stitched = append(stitched, final.Trace.Events...)
	}
	res.WorkSteps = uint64(len(stitched))
	if err := judge(res, st, infos, stitched, final.Result); err != nil {
		return nil, err
	}
	log := trace.NewLog(final.Trace.Header)
	log.Sites = final.Trace.Sites
	log.Events = stitched
	finalRes := *final.Result
	finalRes.Trace = log
	res.View = &scenario.RunView{Machine: final.Machine, Result: &finalRes, Trace: log}
	return res, nil
}

// segmentedWorkers is the worker counts the equivalence tests sweep for a
// store of n segments: sequential, uneven chunks, one chunk per segment and
// more workers than segments.
func segmentedWorkers(n int) []int { return []int{1, 2, 3, n, n + 5} }

// sameSegmented fails unless got carries exactly what want does in every
// field the sequential-equivalence contract covers — everything but
// Restores: verdict, counts, note, the stitched trace with its times, and
// the final result down to its cycle counts.
func sameSegmented(t *testing.T, ctx string, got, want *SegmentedResult) {
	t.Helper()
	if got.Ok != want.Ok || got.Mismatch != want.Mismatch || got.Segments != want.Segments ||
		got.WorkSteps != want.WorkSteps || got.Note != want.Note {
		t.Fatalf("%s: ok=%v mismatch=%d segments=%d worksteps=%d note=%q, want ok=%v mismatch=%d segments=%d worksteps=%d note=%q",
			ctx, got.Ok, got.Mismatch, got.Segments, got.WorkSteps, got.Note,
			want.Ok, want.Mismatch, want.Segments, want.WorkSteps, want.Note)
	}
	if got.View.Trace != got.View.Result.Trace {
		t.Fatalf("%s: the view and its result carry different traces", ctx)
	}
	if !reflect.DeepEqual(got.View.Trace.Header, want.View.Trace.Header) {
		t.Fatalf("%s: stitched trace header differs", ctx)
	}
	if !trace.EventsEqual(got.View.Trace, want.View.Trace, false) {
		t.Fatalf("%s: stitched trace differs (%d events, want %d)", ctx, len(got.View.Trace.Events), len(want.View.Trace.Events))
	}
	g, w := *got.View.Result, *want.View.Result
	g.Trace, w.Trace = nil, nil
	// The scheduling counters are those of the machine that finished the
	// run, from its restore on: they depend on the chunking by design.
	g.SchedRounds, g.SchedEvals, g.SchedHandoffs = 0, 0, 0
	w.SchedRounds, w.SchedEvals, w.SchedHandoffs = 0, 0, 0
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: final result differs:\ngot  %+v\nwant %+v", ctx, g, w)
	}
}

// wantRestores is the restore count the chunked replay must report.
func wantRestores(st flightrec.Store, workers int) int {
	infos := st.Segments()
	chunks := min(workers, len(infos))
	if infos[0].From == 0 {
		chunks--
	}
	return chunks
}

// TestSegmentedMatchesPerSegmentReference: on every corpus scenario the
// chunked replay returns, for every worker count, what the per-segment
// reference returns — including event times and final cycle counts, which
// drift from a plain sequential replay's across sleep gaps and so depend
// on the boundary counters being adopted.
func TestSegmentedMatchesPerSegmentReference(t *testing.T) {
	for _, s := range workload.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			rec := checkpointedCorpusRecording(t, s)
			st := rec
			ref, err := segmentedPerSegment(s, st, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !ref.Ok {
				t.Fatalf("reference replay not ok (mismatch at %d)", ref.Mismatch)
			}
			for _, workers := range segmentedWorkers(ref.Segments) {
				res, err := Segmented(s, st, Options{Workers: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				sameSegmented(t, fmt.Sprintf("workers=%d", workers), res, ref)
				if want := wantRestores(st, workers); res.Restores != want {
					t.Fatalf("workers=%d over %d segments: %d restores, want %d", workers, ref.Segments, res.Restores, want)
				}
			}
		})
	}
}

// brokenRecording is a recording a replay cannot reproduce, with the event
// at which a validated replay must report the first difference.
type brokenRecording struct {
	name     string
	rec      *record.Recording
	mismatch int64
}

// brokenRecordings returns copies of rec that a replay cannot reproduce: an
// event altered in the interior segment of a two-worker chunk (in a field
// no feed or input derives from, so every restore still sees the recorded
// prefix), the event stream cut short (its schedule, the threads of the
// stored events, ends at the stored horizon: the replay runs past it where
// one thread alone can go on, and diverges there otherwise, which the
// verdict names as well) and the event
// stream extended (the replay ends before the stored events do).
func brokenRecordings(t *testing.T, rec *record.Recording) []brokenRecording {
	t.Helper()
	segs := rec.Segments()
	if len(segs) < 5 {
		t.Fatalf("%d segments: no chunk has an interior segment", len(segs))
	}
	clone := func() *record.Recording {
		c := *rec
		c.Full = append([]trace.Event(nil), rec.Full...)
		return &c
	}
	n := len(rec.Full)
	tampered := clone()
	at := segs[1].From + segs[1].Events()/2 // segment 1: interior to the first of two chunks
	tampered.Full[at].Site += 1000
	short := clone()
	short.Full = short.Full[:n-3]
	long := clone()
	extra := long.Full[n-1]
	extra.Seq++
	long.Full = append(long.Full, extra)
	return []brokenRecording{
		{"tampered", tampered, int64(at)},
		{"short", short, int64(n - 3)},
		{"long", long, int64(n)},
	}
}

// TestSegmentedVerdictOnBrokenRecordings: a recording the replay cannot
// reproduce gets the same verdict — Ok false, Mismatch at the same event —
// from every worker count and from the per-segment reference, along with
// the same stitched trace and final result.
func TestSegmentedVerdictOnBrokenRecordings(t *testing.T) {
	for _, name := range []string{"bank", "msgdrop", "dynokv-losthint"} {
		s, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		rec := checkpointedCorpusRecording(t, s)
		for _, broken := range brokenRecordings(t, rec) {
			ctx := name + "/" + broken.name
			st := broken.rec
			ref, err := segmentedPerSegment(s, st, Options{})
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			if ref.Ok || ref.Mismatch != broken.mismatch {
				t.Fatalf("%s: reference ok=%v mismatch=%d, want a mismatch at %d", ctx, ref.Ok, ref.Mismatch, broken.mismatch)
			}
			for _, workers := range segmentedWorkers(ref.Segments) {
				res, err := Segmented(s, st, Options{Workers: workers})
				if err != nil {
					t.Fatalf("%s workers=%d: %v", ctx, workers, err)
				}
				sameSegmented(t, fmt.Sprintf("%s workers=%d", ctx, workers), res, ref)
			}
		}
	}
}

// TestSegmentedRecoversFromAShortSegment: when a chunk's machine stops
// before the next boundary (here the step limit aborts every machine one
// event after it starts), the next segment starts from its own snapshot,
// so the outcome is still the per-segment reference's for every worker
// count.
func TestSegmentedRecoversFromAShortSegment(t *testing.T) {
	s := workload.Bank()
	rec := checkpointedCorpusRecording(t, s)
	o := Options{MaxSteps: 1}
	ref, err := segmentedPerSegment(s, rec, o)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Ok || ref.WorkSteps >= uint64(len(rec.Full)) {
		t.Fatalf("step limit did not cut the segments short: ok=%v worksteps=%d", ref.Ok, ref.WorkSteps)
	}
	for _, workers := range segmentedWorkers(ref.Segments) {
		o.Workers = workers
		res, err := Segmented(s, rec, o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sameSegmented(t, fmt.Sprintf("workers=%d", workers), res, ref)
		if res.Restores != ref.Restores {
			t.Fatalf("workers=%d: %d restores, want the reference's %d", workers, res.Restores, ref.Restores)
		}
	}
}

// countingScheduler delegates to a scheduler and counts the rounds it
// decides: observation only.
type countingScheduler struct {
	vm.Scheduler
	picks uint64
}

func (c *countingScheduler) Pick(m *vm.Machine, enabled []*vm.Thread) *vm.Thread {
	c.picks++
	return c.Scheduler.Pick(m, enabled)
}

// TestForcedPickCorpusEquivalence replays every corpus scenario's perfect
// recording twice — with the replay scheduler observed and not — and
// requires event-identical traces, times included, equal results, and one
// observed pick per scheduling round. (Named for Machine.forcedPick, the
// replay-only scheduling round the plain run took until the enabled set
// was maintained incrementally; both runs now take the one round there
// is.)
func TestForcedPickCorpusEquivalence(t *testing.T) {
	for _, s := range workload.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			rec, _, err := record.Record(s, record.Perfect, s.DefaultSeed, nil)
			if err != nil {
				t.Fatal(err)
			}
			inputs, _ := rec.Inputs()
			sched, _ := rec.SchedFrom(0)
			run := func(sc vm.Scheduler) *scenario.RunView {
				return s.Exec(scenario.ExecOptions{
					Seed:      rec.Seed,
					Params:    rec.Params,
					Scheduler: sc,
					Inputs:    inputs,
					RelaxTime: true,
				})
			}
			counted := &countingScheduler{Scheduler: vm.NewReplayScheduler(sched)}
			observed, plain := run(counted), run(vm.NewReplayScheduler(sched))
			if counted.picks != observed.Result.SchedRounds {
				t.Fatalf("%d picks observed over %d scheduling rounds", counted.picks, observed.Result.SchedRounds)
			}
			if !trace.EventsEqual(plain.Trace, observed.Trace, false) {
				t.Fatal("the plain replay's trace differs from the observed one's")
			}
			p, l := *plain.Result, *observed.Result
			p.Trace, l.Trace = nil, nil
			if !reflect.DeepEqual(p, l) {
				t.Fatalf("results differ:\nplain    %+v\nobserved %+v", p, l)
			}
			if len(plain.Trace.Events) != len(rec.Full) {
				t.Fatalf("replay has %d events, recording %d", len(plain.Trace.Events), len(rec.Full))
			}
		})
	}
}

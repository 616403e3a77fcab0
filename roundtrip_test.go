package debugdet_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"debugdet"
	"debugdet/internal/metrics"
	"debugdet/internal/workload"
	"debugdet/trace"
)

// normalizeRecording maps nil and empty slices/maps to a canonical form so
// a recording can be compared with its decoded round-trip, which
// reconstructs absent collections as empty ones (or vice versa).
func normalizeRecording(r *debugdet.Recording) *debugdet.Recording {
	c := *r
	if len(c.Params) == 0 {
		c.Params = nil
	}
	if len(c.Full) == 0 {
		c.Full = nil
	}
	if len(c.Sched) == 0 {
		c.Sched = nil
	}
	if len(c.Streams) == 0 {
		c.Streams = nil
	}
	if len(c.Checkpoints) == 0 {
		c.Checkpoints = nil
	}
	return &c
}

// TestRecordingRoundTripAllModels is the persistence property test: for a
// recording from every determinism model — including RCSE, whose policy is
// built by the engine's preparation pipeline — SaveRecording followed by
// LoadRecording reproduces every field. The only tolerated difference is
// Overhead, which the format quantizes to 1/1000.
func TestRecordingRoundTripAllModels(t *testing.T) {
	eng := debugdet.New()
	if err := eng.Register(newTicketScenario()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, scenarioName := range []string{"overflow", "ticket-oversell"} {
		s, err := eng.ByName(scenarioName)
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range debugdet.Models() {
			rec, _, err := eng.Record(ctx, s, model, debugdet.Options{})
			if err != nil {
				t.Fatalf("%s/%s: record: %v", scenarioName, model, err)
			}
			var buf bytes.Buffer
			if err := debugdet.SaveRecording(&buf, rec); err != nil {
				t.Fatalf("%s/%s: save: %v", scenarioName, model, err)
			}
			loaded, err := debugdet.LoadRecording(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("%s/%s: load: %v", scenarioName, model, err)
			}

			if math.Abs(loaded.Overhead-rec.Overhead) > 0.001 {
				t.Errorf("%s/%s: overhead %v -> %v, drift beyond quantization",
					scenarioName, model, rec.Overhead, loaded.Overhead)
			}
			want, got := normalizeRecording(rec), normalizeRecording(loaded)
			want.Overhead, got.Overhead = 0, 0
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s/%s: round-trip not lossless:\nwant %+v\ngot  %+v",
					scenarioName, model, want, got)
			}
		}
	}
}

// TestRecordingTruncatedStream pins clean failure: every strict prefix of
// a valid recording stream must produce an error from LoadRecording —
// never a panic, and never a silently truncated recording.
func TestRecordingTruncatedStream(t *testing.T) {
	eng := debugdet.New()
	s, err := eng.ByName("overflow")
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range debugdet.Models() {
		rec, _, err := eng.Record(context.Background(), s, model, debugdet.Options{})
		if err != nil {
			t.Fatalf("%s: record: %v", model, err)
		}
		var buf bytes.Buffer
		if err := debugdet.SaveRecording(&buf, rec); err != nil {
			t.Fatalf("%s: save: %v", model, err)
		}
		data := buf.Bytes()
		for n := 0; n < len(data); n++ {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s: LoadRecording panicked on %d/%d-byte prefix: %v",
							model, n, len(data), r)
					}
				}()
				if _, err := debugdet.LoadRecording(bytes.NewReader(data[:n])); err == nil {
					t.Errorf("%s: %d/%d-byte prefix loaded without error", model, n, len(data))
				}
			}()
		}
	}
}

// TestCheckpointedRecordingRoundTripSeek drives the persistence → time
// travel pipeline end to end through the public SDK: record with
// checkpoints, save, load, then seek the loaded recording — state
// inspection and suffix replay must work on what came off disk, and a
// target before the first checkpoint must fall back to replay-from-start.
func TestCheckpointedRecordingRoundTripSeek(t *testing.T) {
	eng := debugdet.New()
	ctx := context.Background()
	s, err := eng.ByName("bank")
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err := eng.Record(ctx, s, debugdet.Perfect, debugdet.Options{CheckpointInterval: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Checkpoints) == 0 {
		t.Fatal("no checkpoints recorded")
	}
	var buf bytes.Buffer
	if err := debugdet.SaveRecording(&buf, rec); err != nil {
		t.Fatal(err)
	}
	loaded, err := debugdet.LoadRecording(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Checkpoints) != len(rec.Checkpoints) {
		t.Fatalf("checkpoints %d -> %d across save/load", len(rec.Checkpoints), len(loaded.Checkpoints))
	}

	target := loaded.EventCount * 3 / 4
	sess, err := eng.Seek(ctx, s, loaded, target, debugdet.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sess.FromCheckpoint {
		t.Error("seek on a checkpointed recording did not use a checkpoint")
	}
	if sess.Pos() != target {
		t.Errorf("seek landed at %d, want %d", sess.Pos(), target)
	}
	if view, ok := sess.RunToEnd(); !ok {
		t.Errorf("suffix replay from loaded recording not ok (outcome %s)", view.Result.Outcome)
	}

	// A target before the first checkpoint replays from the start.
	early, err := eng.Seek(ctx, s, loaded, 10, debugdet.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer early.Close()
	if early.FromCheckpoint {
		t.Error("seek before the first checkpoint claimed to use one")
	}
}

// TestRecordingHoldsWhatReplayReads pins the .ddrc contract: a recording
// holds what its replayer reads and nothing else, and what it holds is
// enough. Over the corpus at every model, a checkpointed perfect bank run
// and the SDK's ticket-oversell at every model:
//   - the stream table names exactly the streams its input and output
//     events reference, under the run's names;
//   - a recording has schedule entries if and only if its model is
//     debug-rcse, and then one per event of the run;
//   - Save → Load → Save writes the same bytes;
//   - the loaded recording replays as the in-memory one does: the same
//     verdict, attempts, work steps and DF.
func TestRecordingHoldsWhatReplayReads(t *testing.T) {
	ctx := context.Background()
	eng := debugdet.New()
	ticket := newTicketScenario()
	if err := eng.Register(ticket); err != nil {
		t.Fatal(err)
	}
	type cell struct {
		s     *debugdet.Scenario
		model debugdet.Model
		o     debugdet.Options
	}
	var cells []cell
	for _, s := range append(workload.All(), ticket) {
		for _, model := range debugdet.Models() {
			cells = append(cells, cell{s, model, debugdet.Options{}})
		}
	}
	bank, err := eng.ByName("bank")
	if err != nil {
		t.Fatal(err)
	}
	cells = append(cells, cell{bank, debugdet.Perfect, debugdet.Options{Seed: 5, CheckpointInterval: 64}})

	for _, c := range cells {
		name := fmt.Sprintf("%s/%s/seed=%d/ckpt=%d", c.s.Name, c.model, c.o.Seed, c.o.CheckpointInterval)
		rec, orig, err := eng.Record(ctx, c.s, c.model, c.o)
		if err != nil {
			t.Fatalf("%s: record: %v", name, err)
		}
		referenced, top := map[trace.ObjID]bool{}, -1
		for _, e := range rec.Full {
			if e.Kind == trace.EvInput || e.Kind == trace.EvOutput {
				referenced[e.Obj], top = true, max(top, int(e.Obj))
			}
		}
		if len(rec.Streams) != top+1 {
			t.Errorf("%s: a table of %d entries, the highest referenced stream %d", name, len(rec.Streams), top)
		}
		for id, sname := range rec.Streams {
			want := ""
			if referenced[trace.ObjID(id)] {
				want = orig.Machine.StreamName(trace.ObjID(id))
			}
			if sname != want {
				t.Errorf("%s: stream %d named %q, want %q", name, id, sname, want)
			}
		}
		if rcse := c.model == debugdet.DebugRCSE; rcse != (len(rec.Sched) > 0) || rcse && uint64(len(rec.Sched)) != rec.EventCount {
			t.Errorf("%s: %d schedule entries for %d events", name, len(rec.Sched), rec.EventCount)
		}

		var first, second bytes.Buffer
		if err := debugdet.SaveRecording(&first, rec); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		loaded, err := debugdet.LoadRecording(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		if err := debugdet.SaveRecording(&second, loaded); err != nil {
			t.Fatalf("%s: save again: %v", name, err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("%s: Save → Load → Save wrote %d bytes, then %d different ones", name, first.Len(), second.Len())
		}

		type verdict struct {
			Ok        bool
			Attempts  int
			WorkSteps uint64
			DF        float64
		}
		replayOf := func(r *debugdet.Recording) verdict {
			res, err := eng.Replay(ctx, c.s, r, debugdet.ReplayOptions{})
			if err != nil {
				t.Fatalf("%s: replay: %v", name, err)
			}
			var view *debugdet.RunView
			if res.Ok {
				view = res.View
			}
			df := metrics.ComputeFidelity(c.s, orig, view).DF
			return verdict{res.Ok, res.Attempts, res.WorkSteps, df}
		}
		if mem, disk := replayOf(rec), replayOf(loaded); mem != disk {
			t.Errorf("%s: the loaded recording replays as %+v, the in-memory one as %+v", name, disk, mem)
		}
	}
}

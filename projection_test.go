package debugdet_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"debugdet"
	"debugdet/internal/checkpoint"
	"debugdet/internal/record"
	"debugdet/internal/scenario"
	"debugdet/internal/vm"
	"debugdet/internal/workload"
)

// recordLiveReference records a production run with the recorder attached
// to the machine while it runs, ahead of a checkpoint writer when interval
// is positive: the reference a projection of the plain run must
// reproduce.
func recordLiveReference(s *scenario.Scenario, model record.Model, seed int64, interval uint64) (*record.Recording, *scenario.RunView) {
	var r *record.Recorder
	var w *checkpoint.Writer
	var policy *record.Policy
	view := s.Exec(scenario.ExecOptions{Seed: seed, ObserverFactory: func(m *vm.Machine) []vm.Observer {
		policy = record.PolicyFor(model)
		if model == record.DebugRCSE {
			policy = record.RCSEPolicy(m, s.ControlStreams)
		}
		r = record.NewRecorder(m, policy)
		obs := []vm.Observer{r}
		if interval > 0 {
			w = checkpoint.NewWriter(m, interval)
			obs = append(obs, w)
		}
		return obs
	}})
	view.Trace.Header.Model = policy.Name
	rec := r.Capture(s, view, model)
	if w != nil {
		rec.Checkpoints, rec.CheckpointBytes = w.Snapshots(), w.Bytes()
	}
	return rec, view
}

func ddrc(t *testing.T, rec *debugdet.Recording) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := debugdet.SaveRecording(&b, rec); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestProjectionMatchesLive: a recording projected from the plain
// production run (Engine.Record) is the recording a recorder attached
// live would have written — the same .ddrc bytes, overhead, log volume,
// recording cycles and trace header — for every corpus scenario under
// every model, for a checkpointed perfect recording, and for an RCSE
// control stream the program registers lazily, inside a thread body.
func TestProjectionMatchesLive(t *testing.T) {
	ctx := context.Background()
	eng := debugdet.New()
	ticket := newTicketScenario()
	ticket.ControlStreams = []string{"think"}
	type cell struct {
		s        *scenario.Scenario
		model    record.Model
		seed     int64
		interval int64
	}
	var cells []cell
	for _, s := range workload.All() {
		for _, m := range record.AllModels() {
			cells = append(cells, cell{s, m, s.DefaultSeed, 0})
		}
	}
	bank, err := workload.ByName("bank")
	if err != nil {
		t.Fatal(err)
	}
	cells = append(cells, cell{bank, record.Perfect, 5, 64})
	for _, m := range record.AllModels() {
		cells = append(cells, cell{ticket, m, ticket.DefaultSeed, 0})
	}
	for _, c := range cells {
		name := fmt.Sprintf("%s/%d/%s/ckpt=%d", c.s.Name, c.seed, c.model, c.interval)
		rec, view, err := eng.Record(ctx, c.s, c.model, debugdet.Options{Seed: c.seed, CheckpointInterval: c.interval})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		live, liveView := recordLiveReference(c.s, c.model, c.seed, uint64(c.interval))
		if !bytes.Equal(ddrc(t, rec), ddrc(t, live)) {
			t.Errorf("%s: projected .ddrc differs from the live one", name)
		}
		if rec.Overhead != live.Overhead || rec.LogBytes != live.LogBytes {
			t.Errorf("%s: projected overhead %v, %d B; live %v, %d B", name, rec.Overhead, rec.LogBytes, live.Overhead, live.LogBytes)
		}
		if got, want := view.Result.RecordCycles, liveView.Result.RecordCycles; got != want {
			t.Errorf("%s: projected run charged %d recording cycles, live %d", name, got, want)
		}
		if got, want := view.Trace.Header.Model, liveView.Trace.Header.Model; got != want {
			t.Errorf("%s: projected trace header model %q, live %q", name, got, want)
		}
		if c.interval > 0 && len(rec.Checkpoints) < 3 {
			t.Errorf("%s: %d checkpoints", name, len(rec.Checkpoints))
		}
	}
}

// TestBatchMatchesStandalone: a batch whose cells share production runs
// evaluates every cell exactly as a standalone Evaluate does. The grid is
// the benchmark's corpus grid — every scenario under every model, plus its
// output and failure cells again with options of their own (the
// benchmark's ForkReplay cells; the field is ignored) — and cells the run cache must keep
// apart: two seeds of one scenario and a parameter override. Several
// workers read each shared run at once, which the race detector checks.
func TestBatchMatchesStandalone(t *testing.T) {
	ctx := context.Background()
	eng := debugdet.New(debugdet.WithWorkers(4))
	var jobs []debugdet.Job
	for _, s := range eng.Scenarios() {
		for _, m := range debugdet.Models() {
			jobs = append(jobs, debugdet.Job{Scenario: s.Name, Model: m})
		}
		for _, m := range []debugdet.Model{debugdet.Output, debugdet.Failure} {
			jobs = append(jobs, debugdet.Job{Scenario: s.Name, Model: m, Options: &debugdet.Options{}})
		}
	}
	for _, m := range []debugdet.Model{debugdet.Value, debugdet.DebugRCSE} {
		jobs = append(jobs,
			debugdet.Job{Scenario: "bank", Model: m, Seed: 5},
			debugdet.Job{Scenario: "bank", Model: m, Seed: 6},
			debugdet.Job{Scenario: "bank", Model: m, Seed: 5, Params: debugdet.Params{"transfers": 6}})
	}
	n := 0
	for r, err := range eng.EvaluateBatch(ctx, jobs) {
		j := r.Job
		name := fmt.Sprintf("%s/%s/seed=%d/%v", j.Scenario, j.Model, j.Seed, j.Params)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n++
		s, err := eng.ByName(j.Scenario)
		if err != nil {
			t.Fatal(err)
		}
		want, err := eng.Evaluate(ctx, s, j.Model, debugdet.Options{Seed: j.Seed, Params: j.Params, Workers: 1})
		if err != nil {
			t.Fatalf("%s: standalone: %v", name, err)
		}
		got := r.Evaluation
		if got.Summary() != want.Summary() {
			t.Errorf("%s: batch %s\nstandalone %s", name, got.Summary(), want.Summary())
		}
		if !bytes.Equal(ddrc(t, got.Recording), ddrc(t, want.Recording)) {
			t.Errorf("%s: batch .ddrc differs from the standalone one", name)
		}
		if got.Replay.Attempts != want.Replay.Attempts || got.Replay.WorkSteps != want.Replay.WorkSteps {
			t.Errorf("%s: batch replay %d attempts, %d steps; standalone %d, %d", name,
				got.Replay.Attempts, got.Replay.WorkSteps, want.Replay.Attempts, want.Replay.WorkSteps)
		}
		if !reflect.DeepEqual(got.Orig.Result, want.Orig.Result) {
			t.Errorf("%s: batch original run differs from the standalone one", name)
		}
	}
	if n != len(jobs) {
		t.Fatalf("%d of %d cells evaluated", n, len(jobs))
	}
}

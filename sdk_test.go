package debugdet_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"debugdet"
	"debugdet/scen"
)

// TestCustomScenarioSDK is the SDK acceptance test: a scenario authored
// with only the public packages (see newTicketScenario) registers on an
// engine, and EvaluateBatch across it × every determinism model completes
// with deterministic results — identical for any worker count.
func TestCustomScenarioSDK(t *testing.T) {
	run := func(workers int) []string {
		eng := debugdet.New(debugdet.WithWorkers(workers), debugdet.WithReplayBudget(120))
		if err := eng.Register(newTicketScenario()); err != nil {
			t.Fatal(err)
		}
		jobs := debugdet.GridJobs([]string{"ticket-oversell"}, debugdet.Models())
		var got []string
		for res, err := range eng.EvaluateBatch(context.Background(), jobs) {
			if err != nil {
				t.Fatalf("workers=%d %s/%s: %v", workers, res.Job.Scenario, res.Job.Model, err)
			}
			got = append(got, res.Evaluation.Summary())
		}
		return got
	}

	seq := run(1)
	if len(seq) != len(debugdet.Models()) {
		t.Fatalf("batch yielded %d results, want %d", len(seq), len(debugdet.Models()))
	}
	for _, line := range seq {
		if !strings.Contains(line, "DF=1.000") {
			t.Errorf("expected DF=1.000 in every cell, got %q", line)
		}
	}
	par := run(4)
	for i := range seq {
		if seq[i] != par[i] {
			t.Errorf("cell %d differs between workers=1 and workers=4:\nseq: %s\npar: %s",
				i, seq[i], par[i])
		}
	}
}

// TestEvaluateBatchCancellation pins context plumbing: a batch whose
// context is canceled stops streaming and surfaces the context error.
func TestEvaluateBatchCancellation(t *testing.T) {
	eng := debugdet.New(debugdet.WithWorkers(2))
	jobs := debugdet.GridJobs(
		[]string{"sum", "overflow", "msgdrop", "bank"}, debugdet.Models())

	ctx, cancel := context.WithCancel(context.Background())
	var errs []error
	n := 0
	for _, err := range eng.EvaluateBatch(ctx, jobs) {
		n++
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if n >= 2 {
			cancel() // cancel mid-stream; the batch must stop shortly after
		}
	}
	cancel()
	if n >= len(jobs) {
		t.Fatalf("canceled batch streamed all %d results", n)
	}
	if len(errs) == 0 {
		t.Fatal("canceled batch surfaced no error")
	}
	for _, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("batch error = %v, want context.Canceled", err)
		}
	}
}

// TestEngineMethodsCanceled pins that every engine method honors an
// already-canceled context.
func TestEngineMethodsCanceled(t *testing.T) {
	eng := debugdet.New()
	s, err := eng.ByName("overflow")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, _, err := eng.Record(ctx, s, debugdet.Perfect, debugdet.Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("Record error = %v, want context.Canceled", err)
	}
	if _, err := eng.Evaluate(ctx, s, debugdet.Failure, debugdet.Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("Evaluate error = %v, want context.Canceled", err)
	}
	rec, _, err := eng.Record(context.Background(), s, debugdet.Output, debugdet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Replay(ctx, s, rec, debugdet.ReplayOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("Replay error = %v, want context.Canceled", err)
	}
	if ex, err := eng.ExploreCauses(ctx, s, "overflow:segfault", debugdet.Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("ExploreCauses error = %v, want context.Canceled", err)
	} else if len(ex.Missing) != len(s.RootCauses) {
		t.Errorf("canceled exploration reported %d missing causes, want all %d",
			len(ex.Missing), len(s.RootCauses))
	}

	// A context set on the options struct (internal/core's channel, which
	// the aliased Options still carries) must be honored too, not silently
	// overwritten by the argument.
	if _, err := eng.Evaluate(context.Background(), s, debugdet.Failure,
		debugdet.Options{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Errorf("Evaluate with canceled Options.Ctx error = %v, want context.Canceled", err)
	}
	if _, err := eng.Replay(context.Background(), s, rec,
		debugdet.ReplayOptions{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Errorf("Replay with canceled Options.Ctx error = %v, want context.Canceled", err)
	}
}

// TestBatchJobOptions pins that a batch cell carrying full evaluation
// options (here: a non-default production seed) produces exactly the
// result of the equivalent standalone Evaluate call.
func TestBatchJobOptions(t *testing.T) {
	eng := debugdet.New(debugdet.WithReplayBudget(80))
	s, err := eng.ByName("bank")
	if err != nil {
		t.Fatal(err)
	}
	opts := debugdet.Options{ReplayBudget: 80, Seed: 3}
	want, err := eng.Evaluate(context.Background(), s, debugdet.DebugRCSE, opts)
	if err != nil {
		t.Fatal(err)
	}

	jobs := []debugdet.Job{{Scenario: "bank", Model: debugdet.DebugRCSE, Options: &opts}}
	for res, err := range eng.EvaluateBatch(context.Background(), jobs) {
		if err != nil {
			t.Fatal(err)
		}
		got := res.Evaluation
		if got.Summary() != want.Summary() {
			t.Errorf("batch cell differs from standalone evaluation:\nbatch:      %s\nstandalone: %s",
				got.Summary(), want.Summary())
		}
		if got.Seed != opts.Seed {
			t.Errorf("batch cell evaluated seed %d, want the options' seed %d", got.Seed, opts.Seed)
		}
	}
}

// TestRegistryRules pins the catalog contract: built-ins pre-registered,
// duplicates rejected, variants resolvable but excluded from the corpus,
// and unknown names answered with a nearest-match suggestion.
func TestRegistryRules(t *testing.T) {
	eng := debugdet.New()

	if _, err := eng.ByName("hyperkv-fixed"); err != nil {
		t.Errorf("variant not resolvable: %v", err)
	}
	for _, s := range eng.Scenarios() {
		if strings.HasSuffix(s.Name, "-fixed") {
			t.Errorf("corpus contains variant %q", s.Name)
		}
	}

	// Duplicate names — against built-ins and against user scenarios.
	if err := eng.Register(&scen.Scenario{Name: "overflow", Build: newTicketScenario().Build}); err == nil {
		t.Error("registering a scenario shadowing a built-in succeeded")
	}
	if err := eng.Register(newTicketScenario()); err != nil {
		t.Fatal(err)
	}
	if err := eng.Register(newTicketScenario()); err == nil {
		t.Error("duplicate user registration succeeded")
	}

	// Nearest-match suggestions.
	_, err := eng.ByName("dynokv-stale")
	if err == nil || !strings.Contains(err.Error(), `did you mean "dynokv-staleread"?`) {
		t.Errorf("registry suggestion missing: %v", err)
	}
	if !strings.Contains(err.Error(), "ticket-oversell") {
		t.Errorf("error does not list available names: %v", err)
	}
	_, err = eng.ByName("overfow")
	if err == nil || !strings.Contains(err.Error(), `did you mean "overflow"?`) {
		t.Errorf("registry suggestion missing: %v", err)
	}

	// An engine without builtins starts empty.
	if n := len(debugdet.New(debugdet.WithoutBuiltins()).Names()); n != 0 {
		t.Errorf("WithoutBuiltins engine has %d names", n)
	}
}

// TestBatchUnknownScenario pins per-job error streaming: an unknown name
// fails its own cell and the batch continues.
func TestBatchUnknownScenario(t *testing.T) {
	eng := debugdet.New(debugdet.WithReplayBudget(60))
	jobs := []debugdet.Job{
		{Scenario: "nope", Model: debugdet.Perfect},
		{Scenario: "overflow", Model: debugdet.Perfect},
	}
	var errCount, okCount int
	for res, err := range eng.EvaluateBatch(context.Background(), jobs) {
		if err != nil {
			errCount++
			if !strings.Contains(err.Error(), "unknown scenario") {
				t.Errorf("unexpected error: %v", err)
			}
			continue
		}
		okCount++
		if res.Evaluation == nil || res.Evaluation.Scenario != "overflow" {
			t.Errorf("unexpected result %+v", res)
		}
	}
	if errCount != 1 || okCount != 1 {
		t.Errorf("errCount=%d okCount=%d, want 1/1", errCount, okCount)
	}
}

// TestSDKOptionValidation pins option validation at the public surface:
// negative worker counts and budgets are rejected with a clear error
// before any run executes.
func TestSDKOptionValidation(t *testing.T) {
	eng := debugdet.New(debugdet.WithReplayBudget(80))
	s := newTicketScenario()
	if err := eng.Register(s); err != nil {
		t.Fatal(err)
	}
	model, err := debugdet.ParseModel("failure")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for name, o := range map[string]debugdet.Options{
		"workers": {Workers: -2},
		"budget":  {ReplayBudget: -1},
	} {
		if _, err := eng.Evaluate(ctx, s, model, o); err == nil {
			t.Errorf("%s: negative knob accepted", name)
		} else if !strings.Contains(err.Error(), "infer:") {
			t.Errorf("%s: error %q does not identify the source", name, err)
		}
	}
}

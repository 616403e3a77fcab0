package debugdet

import (
	"bytes"
	"context"
	"testing"
)

// The root-package tests exercise the public API exactly as a downstream
// user would: catalog discovery, record, persist, replay, evaluate.

func TestPublicCatalog(t *testing.T) {
	eng := New()
	if len(eng.Scenarios()) < 9 {
		t.Fatalf("catalog has %d scenarios", len(eng.Scenarios()))
	}
	// Names lists the corpus plus the fixed variants, all resolvable.
	names := eng.Names()
	if len(names) < len(eng.Scenarios()) {
		t.Fatal("names and scenarios disagree")
	}
	for _, n := range names {
		if _, err := eng.ByName(n); err != nil {
			t.Fatalf("ByName(%q): %v", n, err)
		}
	}
	if _, err := eng.ByName("bogus"); err == nil {
		t.Fatal("accepted bogus name")
	}
}

func TestPublicModels(t *testing.T) {
	if len(Models()) != 5 {
		t.Fatalf("models = %d", len(Models()))
	}
	m, err := ParseModel("debug-rcse")
	if err != nil || m != DebugRCSE {
		t.Fatalf("ParseModel: %v %v", m, err)
	}
}

func TestPublicRecordReplayLoop(t *testing.T) {
	eng, ctx := New(), context.Background()
	s, err := eng.ByName("overflow")
	if err != nil {
		t.Fatal(err)
	}
	rec, orig, err := eng.Record(ctx, s, Perfect, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if failed, _ := s.Failure.Check(orig); !failed {
		t.Fatal("default overflow seed did not crash")
	}

	var buf bytes.Buffer
	if err := SaveRecording(&buf, rec); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadRecording(&buf)
	if err != nil {
		t.Fatal(err)
	}

	res, err := eng.Replay(ctx, s, loaded, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok {
		t.Fatalf("replay failed: %s", res.Note)
	}
	if failed, sig := s.Failure.Check(res.View); !failed || sig != "overflow:segfault" {
		t.Fatalf("replayed failure identity: %v/%q", failed, sig)
	}
}

func TestPublicEvaluate(t *testing.T) {
	eng := New()
	s, err := eng.ByName("sum")
	if err != nil {
		t.Fatal(err)
	}
	ev, err := eng.Evaluate(context.Background(), s, DebugRCSE, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Utility.DF != 1 {
		t.Fatalf("sum under RCSE: DF = %v", ev.Utility.DF)
	}
	if ev.Summary() == "" {
		t.Fatal("empty summary")
	}
}

// TestHeadlineResult is the repository's one-line claim: on the paper's
// case study, debug determinism achieves value-determinism fidelity at
// near-failure-determinism cost.
func TestHeadlineResult(t *testing.T) {
	eng, ctx := New(), context.Background()
	s, err := eng.ByName("hyperkv-dataloss")
	if err != nil {
		t.Fatal(err)
	}
	rcse, err := eng.Evaluate(ctx, s, DebugRCSE, Options{})
	if err != nil {
		t.Fatal(err)
	}
	value, err := eng.Evaluate(ctx, s, Value, Options{})
	if err != nil {
		t.Fatal(err)
	}
	failure, err := eng.Evaluate(ctx, s, Failure, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rcse.Utility.DF != value.Utility.DF {
		t.Fatalf("RCSE fidelity %v != value fidelity %v", rcse.Utility.DF, value.Utility.DF)
	}
	if rcse.Utility.DF <= failure.Utility.DF {
		t.Fatalf("RCSE fidelity %v not above failure fidelity %v", rcse.Utility.DF, failure.Utility.DF)
	}
	if (rcse.Overhead-1.0)*3 > (value.Overhead - 1.0) {
		t.Fatalf("RCSE overhead %.2fx is not well below value determinism's %.2fx",
			rcse.Overhead, value.Overhead)
	}
}

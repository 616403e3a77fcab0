package debugdet_test

import (
	"context"
	"testing"

	"debugdet"
	"debugdet/internal/replay"
	"debugdet/internal/trace"
)

// TestForkOptionsAreInert pins that the two fork switches are ignored
// (bench/ compiles against them; equivalence pruning is gone, see
// EXPERIMENTS.md "The pruning verdict"): on every corpus output and failure
// cell, Options.ForkReplay and replay.Options.Fork give the same Attempts,
// WorkSteps, WorkCycles, Note and accepted trace as the default.
func TestForkOptionsAreInert(t *testing.T) {
	ctx := context.Background()
	eng := debugdet.New()
	same := func(name string, want, got *replay.Result) {
		t.Helper()
		if want.Attempts != got.Attempts || want.WorkSteps != got.WorkSteps ||
			want.WorkCycles != got.WorkCycles || want.Note != got.Note || want.Ok != got.Ok {
			t.Errorf("%s: %d attempts, %d steps, %d cycles, %q, ok=%v; default %d, %d, %d, %q, ok=%v", name,
				got.Attempts, got.WorkSteps, got.WorkCycles, got.Note, got.Ok,
				want.Attempts, want.WorkSteps, want.WorkCycles, want.Note, want.Ok)
		}
		if got.View == nil || !trace.EventsEqual(want.View.Trace, got.View.Trace, false) {
			t.Errorf("%s: the replay's trace differs from the default's", name)
		}
	}
	for _, s := range eng.Scenarios() {
		for _, m := range []debugdet.Model{debugdet.Output, debugdet.Failure} {
			name := s.Name + "/" + m.String()
			want, err := eng.Evaluate(ctx, s, m, debugdet.Options{Workers: 1})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got, err := eng.Evaluate(ctx, s, m, debugdet.Options{Workers: 1, ForkReplay: true})
			if err != nil {
				t.Fatalf("%s: ForkReplay: %v", name, err)
			}
			same(name+" ForkReplay", want.Replay, got.Replay)

			o := replay.Options{Budget: 200, SearchSeed: 7, Workers: 1}
			base := replay.Replay(s, want.Recording, o)
			o.Fork = true
			same(name+" Fork", base, replay.Replay(s, want.Recording, o))
		}
	}
}

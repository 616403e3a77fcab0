package debugdet_test

import (
	"context"
	"testing"

	"debugdet"
	"debugdet/internal/record"
	"debugdet/internal/workload"
	"debugdet/trace"
)

// isPrefix reports whether got is a prefix of all.
func isPrefix(got, all []trace.Value) bool {
	if len(got) > len(all) {
		return false
	}
	for i := range got {
		if !got[i].Equal(all[i]) {
			return false
		}
	}
	return true
}

// TestRecordedInputsArePrefixes pins the rule that lets every replayer
// force a recording's inputs by index: under every model, each stream's
// recorded inputs are a prefix of the draws the original run made from
// that stream. It covers the corpus at every model.
func TestRecordedInputsArePrefixes(t *testing.T) {
	ctx := context.Background()
	eng := debugdet.New()
	for _, s := range workload.All() {
		for _, model := range record.AllModels() {
			rec, orig, err := eng.Record(ctx, s, model, debugdet.Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", s.Name, model, err)
			}
			//lint:nondet-ok each stream is checked on its own; the verdict does not depend on the order
			for name, got := range rec.InputsByStream() {
				if all := orig.Result.InputsUsed[name]; !isPrefix(got, all) {
					t.Errorf("%s/%s: stream %q records %d inputs that are not a prefix of its %d draws",
						s.Name, model, name, len(got), len(all))
				}
			}
		}
	}
}

// TestLazyControlStreamIsRecorded pins that a declared control stream the
// program registers only when a thread first draws from it is recorded
// like one registered at build time: ticket-oversell's clerks open the
// "think" stream inside their bodies. Every draw is recorded, so the RCSE
// replay succeeds at its first attempt whatever the search seed.
func TestLazyControlStreamIsRecorded(t *testing.T) {
	ctx := context.Background()
	eng := debugdet.New()
	s := newTicketScenario()
	s.ControlStreams = []string{"think"}
	if err := eng.Register(s); err != nil {
		t.Fatal(err)
	}
	rec, orig, err := eng.Record(ctx, s, debugdet.DebugRCSE, debugdet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, all := rec.InputsByStream()["think"], orig.Result.InputsUsed["think"]
	if len(all) == 0 || len(got) != len(all) {
		t.Fatalf("recorded %d of the %d draws of the lazily registered control stream", len(got), len(all))
	}
	for seed := int64(1); seed <= 64; seed++ {
		res, err := eng.Replay(ctx, s, rec, debugdet.ReplayOptions{SearchSeed: seed, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Ok || res.Attempts != 1 {
			t.Errorf("search seed %d: ok=%v after %d attempts (%s)", seed, res.Ok, res.Attempts, res.Note)
		}
	}
}

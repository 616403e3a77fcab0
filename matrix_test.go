package debugdet

import (
	"context"
	"strings"
	"testing"
)

// TestFullMatrix pins the qualitative outcome of every (scenario, model)
// cell: the repository's complete expected-results table. Any change that
// shifts a cell's debugging fidelity away from the documented value —
// recorder policies, replayer strategies, search behaviour, workload
// tuning — fails here first.
func TestFullMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix is a long test")
	}
	eng, ctx := New(), context.Background()
	// Expected DF per scenario and model, from EXPERIMENTS.md.
	expect := map[string]map[Model]float64{
		"sum": {
			Perfect: 1, Value: 1, Output: 0, Failure: 1, DebugRCSE: 1,
		},
		"overflow": {
			Perfect: 1, Value: 1, Output: 1, Failure: 1, DebugRCSE: 1,
		},
		"msgdrop": {
			Perfect: 1, Value: 1, Output: 0.5, Failure: 0.5, DebugRCSE: 1,
		},
		"hyperkv-dataloss": {
			Perfect: 1, Value: 1, Output: 1, Failure: 1.0 / 3.0, DebugRCSE: 1,
		},
		"bank": {
			Perfect: 1, Value: 1, Output: 0, Failure: 1, DebugRCSE: 1,
		},
		"deadlock": {
			Perfect: 1, Value: 1, Output: 1, Failure: 1, DebugRCSE: 1,
		},
		// The dynokv replication family: output determinism lands on the
		// environment explanation for the stale read (DF 1/2); the other
		// cells reproduce the original cause.
		"dynokv-staleread": {
			Perfect: 1, Value: 1, Output: 0.5, Failure: 1, DebugRCSE: 1,
		},
		"dynokv-resurrect": {
			Perfect: 1, Value: 1, Output: 1, Failure: 1, DebugRCSE: 1,
		},
		"dynokv-losthint": {
			Perfect: 1, Value: 1, Output: 1, Failure: 1, DebugRCSE: 1,
		},
		// The durability family (simulated-disk crash-restart bugs): the
		// fsync-reordering loss is the interesting row — output and failure
		// determinism satisfy their contracts with a device-loss
		// explanation (DF 1/2) while value determinism and RCSE reproduce
		// the real reordering.
		"disk-tornwal": {
			Perfect: 1, Value: 1, Output: 1, Failure: 1, DebugRCSE: 1,
		},
		"disk-fsyncloss": {
			Perfect: 1, Value: 1, Output: 0.5, Failure: 0.5, DebugRCSE: 1,
		},
		"disk-snapres": {
			Perfect: 1, Value: 1, Output: 1, Failure: 1, DebugRCSE: 1,
		},
		// The generated fuzz family (internal/progen): small programs with
		// pinned failing defaults, so every model converges within budget;
		// the differential oracles in internal/progen sweep the wider seed
		// space where the relaxed models start missing.
		"fuzz-atomicity": {
			Perfect: 1, Value: 1, Output: 1, Failure: 1, DebugRCSE: 1,
		},
		"fuzz-deadlock": {
			Perfect: 1, Value: 1, Output: 1, Failure: 1, DebugRCSE: 1,
		},
		"fuzz-lostmsg": {
			Perfect: 1, Value: 1, Output: 1, Failure: 1, DebugRCSE: 1,
		},
		"fuzz-oversell": {
			Perfect: 1, Value: 1, Output: 1, Failure: 1, DebugRCSE: 1,
		},
		"fuzz-crashpoint": {
			Perfect: 1, Value: 1, Output: 1, Failure: 1, DebugRCSE: 1,
		},
	}
	if len(expect) != len(eng.Scenarios()) {
		t.Fatalf("matrix covers %d scenarios, corpus has %d", len(expect), len(eng.Scenarios()))
	}
	for name, models := range expect {
		name, models := name, models
		t.Run(name, func(t *testing.T) {
			s, err := eng.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for model, wantDF := range models {
				ev, err := eng.Evaluate(ctx, s, model, Options{ReplayBudget: 200})
				if err != nil {
					t.Fatalf("%s: %v", model, err)
				}
				got := ev.Utility.DF
				if diff := got - wantDF; diff > 0.001 || diff < -0.001 {
					t.Errorf("%s/%s: DF = %.3f, want %.3f (%s)",
						name, model, got, wantDF, ev.Fidelity)
				}
				// Universal invariants of the framework, checked on
				// every cell:
				if ev.Overhead < 1.0 {
					t.Errorf("%s/%s: overhead %v below 1.0", name, model, ev.Overhead)
				}
				if model == Failure && ev.LogBytes != 0 {
					t.Errorf("%s/failure: recorded %d bytes, want 0", name, ev.LogBytes)
				}
				if model == Perfect && ev.Replay.Attempts != 1 {
					t.Errorf("%s/perfect: %d attempts", name, ev.Replay.Attempts)
				}
			}
		})
	}
}

// TestDynoKVRCSEBeatsFailureDeterminism pins the family-level claim the
// replication scenarios were added to make: on genuinely distributed root
// causes, debug determinism via RCSE is at least as useful as failure
// determinism (DU = DF × DE) while recording at near-native overhead.
func TestDynoKVRCSEBeatsFailureDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluations are long tests")
	}
	eng, ctx := New(), context.Background()
	for _, name := range eng.Names() {
		if !strings.HasPrefix(name, "dynokv-") || strings.HasSuffix(name, "-fixed") {
			continue
		}
		name := name
		t.Run(name, func(t *testing.T) {
			s, err := eng.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			rcse, err := eng.Evaluate(ctx, s, DebugRCSE, Options{ReplayBudget: 200})
			if err != nil {
				t.Fatal(err)
			}
			fail, err := eng.Evaluate(ctx, s, Failure, Options{ReplayBudget: 200})
			if err != nil {
				t.Fatal(err)
			}
			if rcse.Utility.DU < fail.Utility.DU {
				t.Errorf("RCSE DU %.3f < failure DU %.3f", rcse.Utility.DU, fail.Utility.DU)
			}
			if rcse.Utility.DF != 1 {
				t.Errorf("RCSE DF = %.3f, want 1", rcse.Utility.DF)
			}
			// The sweet spot also requires near-native recording cost:
			// RCSE must record strictly less than value determinism.
			value, err := eng.Evaluate(ctx, s, Value, Options{ReplayBudget: 200})
			if err != nil {
				t.Fatal(err)
			}
			if rcse.LogBytes >= value.LogBytes {
				t.Errorf("RCSE log %d bytes >= value log %d bytes", rcse.LogBytes, value.LogBytes)
			}
			if rcse.Overhead >= value.Overhead {
				t.Errorf("RCSE overhead %.2f >= value overhead %.2f", rcse.Overhead, value.Overhead)
			}
		})
	}
}

package infer

import (
	"testing"

	"debugdet/internal/lint/sites"
	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
	"debugdet/internal/workload"
)

func TestSearchFindsFailureSignature(t *testing.T) {
	s := workload.Overflow()
	out := Search(s, func(v *scenario.RunView) bool {
		failed, sig := s.CheckFailure(v)
		return failed && sig == "overflow:segfault"
	}, Options{Budget: 100})
	if !out.Ok {
		t.Fatalf("search failed after %d attempts: %s", out.Attempts, out.Note)
	}
	if out.View == nil || out.WorkSteps == 0 || out.WorkCycles == 0 {
		t.Fatal("accepted outcome missing view or work accounting")
	}
}

func TestSearchBudgetExhaustion(t *testing.T) {
	s := workload.Sum()
	out := Search(s, func(*scenario.RunView) bool { return false }, Options{Budget: 17})
	if out.Ok {
		t.Fatal("unsatisfiable search claimed success")
	}
	// The budget ran out: the view is the last candidate's run.
	if out.View == nil || out.View.Machine == nil || out.View.Trace.Header.Seed != 16 {
		t.Fatalf("exhausted search did not keep its last candidate's view: %+v", out.View)
	}
	if out.Attempts != 17 {
		t.Fatalf("attempts = %d, want 17", out.Attempts)
	}
	if out.Note != "budget exhausted" {
		t.Fatalf("note = %q", out.Note)
	}
}

func TestSearchTriesShrinkFirst(t *testing.T) {
	s := workload.Overflow()
	sawShrink := false
	out := Search(s, func(v *scenario.RunView) bool {
		if v.Trace.Header.Params["requests"] == 1 {
			sawShrink = true
		}
		failed, _ := s.CheckFailure(v)
		return failed
	}, Options{
		Budget:       64,
		ShrinkParams: []scenario.Params{{"requests": 1}},
	})
	if !out.Ok {
		t.Fatalf("search failed: %s", out.Note)
	}
	if !sawShrink {
		t.Fatal("shrunken parameters were never attempted")
	}
	if out.AcceptedParams.Get("requests", -1) == 1 && out.View.Result.Steps >= 200 {
		t.Fatal("shrunken acceptance is implausibly long")
	}
}

func TestSearchIsDeterministicInSeed(t *testing.T) {
	s := workload.Overflow()
	accept := func(v *scenario.RunView) bool {
		failed, _ := s.CheckFailure(v)
		return failed
	}
	a := Search(s, accept, Options{Budget: 50, BaseSeed: 5})
	b := Search(s, accept, Options{Budget: 50, BaseSeed: 5})
	if a.Attempts != b.Attempts || a.WorkCycles != b.WorkCycles {
		t.Fatalf("same-seed searches diverged: %d/%d vs %d/%d",
			a.Attempts, a.WorkCycles, b.Attempts, b.WorkCycles)
	}
}

func TestForcedInputsAreRespected(t *testing.T) {
	s := workload.Sum()
	forced := map[string][]trace.Value{
		"in.a": {trace.Int(2)},
		"in.b": {trace.Int(2)},
	}
	out := Search(s, func(v *scenario.RunView) bool {
		// Every candidate must consume the forced inputs.
		a := v.Result.InputsUsed["in.a"]
		b := v.Result.InputsUsed["in.b"]
		if len(a) != 1 || a[0].AsInt() != 2 || len(b) != 1 || b[0].AsInt() != 2 {
			t.Fatalf("candidate ignored forced inputs: a=%v b=%v", a, b)
		}
		failed, _ := s.CheckFailure(v)
		return failed
	}, Options{Budget: 5, ForcedInputs: forced})
	if !out.Ok {
		t.Fatal("forced-input search did not accept the (2,2) failure")
	}
	if out.Attempts != 1 {
		t.Fatalf("forced-input search took %d attempts, want 1", out.Attempts)
	}
}

func TestForcedScheduleReplaysDeterministically(t *testing.T) {
	// Record a run, then search with the complete forced schedule: the
	// first candidate must already match.
	s := workload.Bank()
	v := s.Exec(scenario.ExecOptions{Seed: 3})
	sched := v.Trace.Schedule()
	total := v.Result.Outputs["bank.total"][0].AsInt()

	out := Search(s, func(c *scenario.RunView) bool {
		outs := c.Result.Outputs["bank.total"]
		return len(outs) == 1 && outs[0].AsInt() == total
	}, Options{
		Budget:   3,
		Schedule: sched,
		ForcedInputs: map[string][]trace.Value{
			"xfer.pick": v.Result.InputsUsed["xfer.pick"],
		},
	})
	if !out.Ok || out.Attempts != 1 {
		t.Fatalf("forced-schedule search: ok=%v attempts=%d (%s)", out.Ok, out.Attempts, out.Note)
	}
}

func TestCandidateSchedulerDiversity(t *testing.T) {
	// The search must mix PCT candidates in (every third attempt).
	o := Options{BaseSeed: 1}
	var names []string
	for i := int64(0); i < 6; i++ {
		names = append(names, candidateScheduler(o, i).Name())
	}
	sawPCT, sawRandom := false, false
	for _, n := range names {
		if n == "pct" {
			sawPCT = true
		}
		if n == "random" {
			sawRandom = true
		}
	}
	if !sawPCT || !sawRandom {
		t.Fatalf("scheduler mix missing a strategy: %v", names)
	}
}

func TestMixDistributes(t *testing.T) {
	seen := make(map[int64]bool)
	for i := int64(0); i < 100; i++ {
		v := mix(7, i)
		if v < 0 {
			t.Fatalf("mix produced negative seed %d", v)
		}
		seen[v] = true
	}
	if len(seen) < 95 {
		t.Fatalf("mix collides too much: %d distinct of 100", len(seen))
	}
}

var _ = vm.ZeroInputs // silence unused-import lint in minimal builds

// TestPrioritizeStablePartition checks the static-seeding reorder: with
// suspects and no forced schedule, non-PCT candidates come first, each
// class keeps its relative order, every original index survives exactly
// once, and candidate identity rides on idx rather than position.
func TestPrioritizeStablePartition(t *testing.T) {
	s := &scenario.Scenario{DefaultParams: scenario.Params{}}
	o := Options{Budget: 20, Suspects: []sites.Suspect{{Locks: [2]string{"A", "B"}}}}
	plan := buildPlan(s, o)
	if len(plan) != 20 {
		t.Fatalf("plan length = %d, want 20", len(plan))
	}
	split := -1
	for i, pt := range plan {
		if usesPCT(int64(pt.idx)) {
			if split == -1 {
				split = i
			}
		} else if split != -1 {
			t.Fatalf("random candidate idx %d after PCT block started at %d", pt.idx, split)
		}
	}
	if split == -1 {
		t.Fatal("no PCT candidates in plan")
	}
	seen := make(map[int]bool)
	prev := -1
	for i, pt := range plan {
		if seen[pt.idx] {
			t.Fatalf("idx %d duplicated", pt.idx)
		}
		seen[pt.idx] = true
		if i == split {
			prev = -1 // order resets at the class boundary
		}
		if pt.idx <= prev {
			t.Fatalf("relative order broken at position %d: idx %d after %d", i, pt.idx, prev)
		}
		prev = pt.idx
	}
	for i := 0; i < 20; i++ {
		if !seen[i] {
			t.Fatalf("idx %d missing from seeded plan", i)
		}
	}

	// No suspects, or a forced schedule, leaves the plan untouched.
	for _, o := range []Options{
		{Budget: 20},
		{Budget: 20, Suspects: o.Suspects, Schedule: []trace.ThreadID{0}},
	} {
		for i, pt := range buildPlan(s, o) {
			if pt.idx != i {
				t.Fatalf("unseeded plan reordered: position %d has idx %d", i, pt.idx)
			}
		}
	}
}

// TestSeededSearchBitIdentical runs the failure search on the deadlock
// scenario with and without suspects at a seed where the unseeded search
// accepts a random-scheduler candidate: the accepted execution must be
// bit-identical and the seeded search must not work harder.
func TestSeededSearchBitIdentical(t *testing.T) {
	s, err := workload.ByName("deadlock")
	if err != nil {
		t.Fatal(err)
	}
	accept := func(v *scenario.RunView) bool {
		failed, sig := s.CheckFailure(v)
		return failed && sig == "deadlock:abba"
	}
	o := Options{Budget: 60, BaseSeed: 7, Workers: 1}
	base := Search(s, accept, o)
	o.Suspects = []sites.Suspect{{Locks: [2]string{"A", "B"}}}
	seeded := Search(s, accept, o)
	if !base.Ok || !seeded.Ok {
		t.Fatalf("search failed: base %v seeded %v", base.Note, seeded.Note)
	}
	if base.Note != seeded.Note {
		t.Fatalf("accepted candidates differ: %q vs %q", base.Note, seeded.Note)
	}
	if !trace.EventsEqual(base.View.Trace, seeded.View.Trace, false) {
		t.Fatal("accepted executions differ")
	}
	if seeded.Attempts > base.Attempts {
		t.Fatalf("seeding increased attempts: %d -> %d", base.Attempts, seeded.Attempts)
	}
}

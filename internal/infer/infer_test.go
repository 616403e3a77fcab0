package infer

import (
	"testing"

	"debugdet/internal/scenario"
	"debugdet/internal/trace"
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

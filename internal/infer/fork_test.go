package infer

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
	"debugdet/internal/workload"
)

// acceptedEqual compares the fields the fork-equivalence contract pins:
// everything outcomesEqual covers except the work counters, which forked
// search deliberately reduces.
func acceptedEqual(t *testing.T, label string, a, b *Outcome) {
	t.Helper()
	if a.Ok != b.Ok || a.Attempts != b.Attempts || a.Note != b.Note {
		t.Fatalf("%s: outcomes differ: ok=%v attempts=%d note=%q vs ok=%v attempts=%d note=%q",
			label, a.Ok, a.Attempts, a.Note, b.Ok, b.Attempts, b.Note)
	}
	if a.AcceptedParams.String() != b.AcceptedParams.String() {
		t.Fatalf("%s: accepted params %q vs %q", label, a.AcceptedParams, b.AcceptedParams)
	}
	if (a.View == nil) != (b.View == nil) {
		t.Fatalf("%s: one search has a view, the other does not", label)
	}
	if a.View != nil {
		if a.View.Result.Outcome != b.View.Result.Outcome {
			t.Fatalf("%s: accepted outcomes %v vs %v", label, a.View.Result.Outcome, b.View.Result.Outcome)
		}
		if !trace.EventsEqual(a.View.Trace, b.View.Trace, false) {
			t.Fatalf("%s: accepted traces differ", label)
		}
		if !reflect.DeepEqual(a.View.Result.Outputs, b.View.Result.Outputs) {
			t.Fatalf("%s: accepted outputs differ", label)
		}
	}
}

// TestForkedSearchBitEquivalent is the tentpole contract: the forked
// search accepts the identical candidate, with identical Attempts, as the
// sequential from-scratch search — across scenario styles (ESD signature
// search with shrinking, ODR output search, deadlock search, exhaustion)
// and worker counts.
func TestForkedSearchBitEquivalent(t *testing.T) {
	odr := workload.MsgDrop()
	orig := odr.Exec(scenario.ExecOptions{Seed: odr.DefaultSeed})
	want := orig.Result.Outputs
	acceptODR := func(v *scenario.RunView) bool {
		return reflect.DeepEqual(v.Result.Outputs, want)
	}

	esd := workload.Overflow()
	acceptESD := func(v *scenario.RunView) bool {
		failed, sig := esd.CheckFailure(v)
		return failed && sig == "overflow:segfault"
	}

	dead, err := workload.ByName("deadlock")
	if err != nil {
		t.Fatal(err)
	}
	acceptDead := func(v *scenario.RunView) bool {
		failed, _ := dead.CheckFailure(v)
		return failed
	}

	cases := map[string]struct {
		s      *scenario.Scenario
		accept func(*scenario.RunView) bool
		opts   Options
	}{
		"odr-msgdrop": {odr, acceptODR, Options{Budget: 120, BaseSeed: 7}},
		"esd-overflow": {esd, acceptESD, Options{
			Budget: 120, BaseSeed: 7,
			ShrinkParams: []scenario.Params{{"requests": 2}, {"requests": 4}},
		}},
		"deadlock":  {dead, acceptDead, Options{Budget: 60, BaseSeed: 7}},
		"exhausted": {esd, func(*scenario.RunView) bool { return false }, Options{Budget: 37, BaseSeed: 3}},
	}
	for name, tc := range cases {
		seqOpts := tc.opts
		seqOpts.Workers = 1
		seq := Search(tc.s, tc.accept, seqOpts)
		for _, cfg := range []struct {
			label   string
			workers int
		}{
			{"fork-w1", 1},
			{"fork-w4", 4},
		} {
			forkOpts := tc.opts
			forkOpts.Workers = cfg.workers
			forkOpts.Fork = true
			fork := Search(tc.s, tc.accept, forkOpts)
			acceptedEqual(t, name+"/"+cfg.label, seq, fork)
			if fork.WorkSteps > seq.WorkSteps {
				t.Fatalf("%s/%s: forked search executed more steps (%d) than scratch (%d)",
					name, cfg.label, fork.WorkSteps, seq.WorkSteps)
			}
		}
	}
}

// TestForkedForcedScheduleSavesWork pins the win on the RCSE-shaped
// search: with a complete forced schedule and forced control inputs every
// candidate is equivalent, so the forked search executes the trunk once
// and prunes the rest — at least halving WorkSteps (in practice dividing
// by the budget).
func TestForkedForcedScheduleSavesWork(t *testing.T) {
	s := workload.Bank()
	v := s.Exec(scenario.ExecOptions{Seed: 3})
	reject := func(*scenario.RunView) bool { return false }
	base := Options{
		Budget:       16,
		BaseSeed:     11,
		Workers:      1,
		Schedule:     v.Trace.Schedule(),
		ForcedInputs: map[string][]trace.Value{"xfer.pick": v.Result.InputsUsed["xfer.pick"]},
	}
	scratch := Search(s, reject, base)
	forkOpts := base
	forkOpts.Fork = true
	fork := Search(s, reject, forkOpts)
	acceptedEqual(t, "forced-schedule", scratch, fork)
	if fork.WorkSteps == 0 {
		t.Fatal("forked search executed nothing, not even the trunk")
	}
	if fork.WorkSteps*2 > scratch.WorkSteps {
		t.Fatalf("forked search saved too little: %d steps forked vs %d scratch",
			fork.WorkSteps, scratch.WorkSteps)
	}
}

// TestForkerBoundaries drives the Forker directly through the pruning
// boundary cases: a candidate identical to a retained path (full reuse,
// zero executed work), a candidate diverging at the last input draw and
// one diverging at the first (both whole runs). Every case must stay
// bit-identical to a from-scratch execution of the same candidate.
func TestForkerBoundaries(t *testing.T) {
	s := workload.Bank()
	rec := s.Exec(scenario.ExecOptions{Seed: s.DefaultSeed})
	sched := rec.Trace.Schedule()
	picks := rec.Result.InputsUsed["xfer.pick"]
	if len(picks) < 2 {
		t.Fatalf("recording consumed only %d picks", len(picks))
	}
	mk := func(seed int64, forced []trace.Value) Candidate {
		vals := map[string][]trace.Value{"xfer.pick": forced}
		return Candidate{
			Seed:      seed,
			Scheduler: func() vm.Scheduler { return vm.NewReplayScheduler(sched) },
			Inputs: func() vm.InputSource {
				return &vm.MapInputs{Values: vals, Base: s.SearchSource(9, s.DefaultParams)}
			},
		}
	}
	scratchOf := func(c Candidate) *scenario.RunView {
		return s.Exec(scenario.ExecOptions{Seed: c.Seed, Scheduler: c.Scheduler(), Inputs: c.Inputs()})
	}
	same := func(label string, got, want *scenario.RunView) {
		t.Helper()
		if err := runDiff(got, want); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}

	f := NewForker(ForkerConfig{Scenario: s})
	trunk := mk(100, picks)
	tv, tSteps, _ := f.Run(trunk)
	same("trunk", tv, scratchOf(trunk))
	if tSteps != tv.Result.Steps {
		t.Fatalf("trunk executed %d of its %d steps; the first run has nothing to fork from",
			tSteps, tv.Result.Steps)
	}

	// Full reuse: an equivalent candidate is pruned to zero executed work.
	clone := mk(101, picks)
	cv, cSteps, cCycles := f.Run(clone)
	if cSteps != 0 || cCycles != 0 {
		t.Fatalf("equivalent candidate executed %d steps / %d cycles, want 0/0", cSteps, cCycles)
	}
	same("reuse", cv, scratchOf(clone))
	if cv.Trace.Header.Seed != 101 {
		t.Fatalf("reused view carries seed %d, want the candidate's 101", cv.Trace.Header.Seed)
	}

	// Late divergence: alter only the final input draw; the candidate
	// agrees with the trunk up to its last draw and still runs whole.
	altered := append(append([]trace.Value(nil), picks[:len(picks)-1]...),
		trace.Int(picks[len(picks)-1].AsInt()+1))
	late := mk(102, altered)
	lv, lSteps, _ := f.Run(late)
	same("late-divergence", lv, scratchOf(late))
	if lSteps != lv.Result.Steps {
		t.Fatalf("late divergence executed %d of %d steps, want a whole run",
			lSteps, lv.Result.Steps)
	}

	// Early divergence: alter the first draw; the candidate runs whole.
	first := append([]trace.Value(nil), picks...)
	first[0] = trace.Int(picks[0].AsInt() + 1)
	early := mk(103, first)
	ev, eSteps, _ := f.Run(early)
	same("early-divergence", ev, scratchOf(early))
	if eSteps != ev.Result.Steps {
		t.Fatalf("early divergence executed %d of %d steps, want a full scratch run",
			eSteps, ev.Result.Steps)
	}
}

// TestSearchValidatesOptions pins Options.Validate and its wiring into
// Search: out-of-domain knobs produce a clean error outcome instead of a
// silent reinterpretation (a negative Workers used to run sequentially).
func TestSearchValidatesOptions(t *testing.T) {
	s := workload.Sum()
	reject := func(*scenario.RunView) bool { return false }
	cases := map[string]Options{
		"workers": {Workers: -1},
		"budget":  {Budget: -5},
	}
	for name, o := range cases {
		out := Search(s, reject, o)
		if out.Err == nil || out.Ok || out.View != nil {
			t.Fatalf("%s: invalid options not rejected: err=%v ok=%v", name, out.Err, out.Ok)
		}
		if out.Attempts != 0 {
			t.Fatalf("%s: rejected search still ran %d candidates", name, out.Attempts)
		}
		if out.Note != "invalid options" {
			t.Fatalf("%s: note = %q", name, out.Note)
		}
		if !strings.Contains(out.Err.Error(), "infer:") {
			t.Fatalf("%s: error %q does not identify the package", name, out.Err)
		}
	}
	// The zero defaults all remain valid.
	if err := (Options{}).Validate(); err != nil {
		t.Fatalf("zero options rejected: %v", err)
	}
}

// runDiff reports how a forker's view differs from a from-scratch
// execution of the same candidate: outcome, steps, cycles, events,
// outputs or inputs.
func runDiff(got, want *scenario.RunView) error {
	switch {
	case got.Result.Outcome != want.Result.Outcome:
		return fmt.Errorf("outcome %v, want %v", got.Result.Outcome, want.Result.Outcome)
	case got.Result.Steps != want.Result.Steps || got.Result.Cycles != want.Result.Cycles:
		return fmt.Errorf("steps/cycles %d/%d, want %d/%d",
			got.Result.Steps, got.Result.Cycles, want.Result.Steps, want.Result.Cycles)
	case !trace.EventsEqual(got.Trace, want.Trace, false):
		return fmt.Errorf("traces differ")
	case !reflect.DeepEqual(got.Result.Outputs, want.Result.Outputs):
		return fmt.Errorf("outputs differ")
	case !reflect.DeepEqual(got.Result.InputsUsed, want.Result.InputsUsed):
		return fmt.Errorf("inputs differ")
	}
	return nil
}

// TestForkedRunIsAllOrNothing pins the Forker's two outcomes: a candidate
// is either pruned (zero steps) or executed whole (all of its steps), and
// its view is bit-identical to a from-scratch execution either way — for
// a forest grown candidate by candidate, and for one frozen after the
// trunk and shared by concurrent Runs (run it under -race). The candidates
// mix forced-schedule runs differing late, early or not at all in their
// input draws with free-schedule runs that diverge at their first choice.
func TestForkedRunIsAllOrNothing(t *testing.T) {
	s := workload.Bank()
	rec := s.Exec(scenario.ExecOptions{Seed: s.DefaultSeed})
	sched := rec.Trace.Schedule()
	picks := rec.Result.InputsUsed["xfer.pick"]
	forced := func(int) vm.Scheduler { return vm.NewReplayScheduler(sched) }
	random := func(k int) vm.Scheduler { return vm.NewRandomScheduler(int64(k / 2)) }
	// Candidate k alters the (k/2)-th draw from the end (none for k < 2,
	// the first draw for k/2 = len(picks)): an odd k repeats its
	// predecessor's candidate under another seed.
	mk := func(k int, scheduler func(int) vm.Scheduler) Candidate {
		vals := append([]trace.Value(nil), picks...)
		if a := k / 2; a > 0 {
			vals[len(vals)-a] = trace.Int(vals[len(vals)-a].AsInt() + 1)
		}
		in := map[string][]trace.Value{"xfer.pick": vals}
		return Candidate{
			Seed:      int64(100 + k),
			Scheduler: func() vm.Scheduler { return scheduler(k) },
			Inputs: func() vm.InputSource {
				return &vm.MapInputs{Values: in, Base: s.SearchSource(9, s.DefaultParams)}
			},
		}
	}
	var cands []Candidate
	for k := 0; k < 8; k++ {
		cands = append(cands, mk(k, forced))
	}
	cands = append(cands, mk(2*len(picks), forced), mk(2*len(picks)+1, forced))
	for k := 0; k < 4; k++ {
		cands = append(cands, mk(k, random))
	}
	check := func(label string, f *Forker, c Candidate) (pruned bool, err error) {
		got, steps, cycles := f.Run(c)
		want := s.Exec(scenario.ExecOptions{Seed: c.Seed, Scheduler: c.Scheduler(), Inputs: c.Inputs()})
		if err := runDiff(got, want); err != nil {
			return false, fmt.Errorf("%s candidate %d: %v", label, c.Seed, err)
		}
		if got.Trace.Header.Seed != c.Seed {
			return false, fmt.Errorf("%s candidate %d: view carries seed %d", label, c.Seed, got.Trace.Header.Seed)
		}
		if (steps != 0 || cycles != 0) && (steps != got.Result.Steps || cycles != got.Result.Cycles) {
			return false, fmt.Errorf("%s candidate %d: executed %d/%d steps and %d/%d cycles, want none or all",
				label, c.Seed, steps, got.Result.Steps, cycles, got.Result.Cycles)
		}
		return steps == 0, nil
	}

	seq := NewForker(ForkerConfig{Scenario: s})
	pruned := 0
	for _, c := range cands {
		p, err := check("sequential", seq, c)
		if err != nil {
			t.Fatal(err)
		}
		if p {
			pruned++
		}
	}
	if pruned == 0 || pruned == len(cands) {
		t.Fatalf("sequential: %d of %d candidates pruned, want some of each outcome", pruned, len(cands))
	}

	par := NewForker(ForkerConfig{Scenario: s})
	if _, err := check("trunk", par, cands[0]); err != nil {
		t.Fatal(err)
	}
	par.Freeze()
	var wg sync.WaitGroup
	for _, c := range cands {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := check("concurrent", par, c); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// TestSearchReusesRejectedTraces pins the trace reuse behind Discard: a
// search that rejects every candidate allocates one trace array per
// candidate in flight, not one per candidate. Sequentially that is one
// array; with Fork, one more per retained path, whose arrays the forest
// keeps; with two workers, at most par.Ordered's window (16 per worker)
// plus the two running. Every view but the forest's has Trace.Events nil
// once rejected, and every forest view still equals a from-scratch
// execution of its candidate: reuse never hands a retained array on.
func TestSearchReusesRejectedTraces(t *testing.T) {
	s := workload.Bank()
	cases := map[string]struct {
		opts      Options
		maxArrays int // -1: exactly one more than the forest
	}{
		"sequential": {Options{Budget: 60, BaseSeed: 3, Workers: 1}, 1},
		"forked":     {Options{Budget: 60, BaseSeed: 3, Workers: 1, Fork: true}, -1},
		"workers=2":  {Options{Budget: 60, BaseSeed: 3, Workers: 2}, 34},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			arrays := make(map[*trace.Event]bool)
			var views []*scenario.RunView
			out := Search(s, func(v *scenario.RunView) bool {
				arrays[&v.Trace.Events[0]] = true
				views = append(views, v)
				return false
			}, tc.opts)
			if out.Ok || out.Attempts != tc.opts.Budget {
				t.Fatalf("ok=%v attempts=%d, want every one of %d candidates rejected", out.Ok, out.Attempts, tc.opts.Budget)
			}
			bound := tc.maxArrays
			if bound < 0 {
				bound = 1 + maxForkPaths
			}
			if len(arrays) > bound {
				t.Fatalf("%d rejected candidates used %d distinct trace arrays, want at most %d",
					out.Attempts, len(arrays), bound)
			}
			var forest []*scenario.RunView
			for _, v := range views {
				if v.Trace.Events != nil {
					forest = append(forest, v)
				}
			}
			if tc.maxArrays >= 0 && len(forest) != 0 {
				t.Fatalf("%d rejected views kept their events without a forest", len(forest))
			}
			if tc.maxArrays < 0 && (len(forest) == 0 || len(arrays) != 1+len(forest)) {
				t.Fatalf("%d distinct trace arrays with %d forest paths, want one more than the forest",
					len(arrays), len(forest))
			}
			full := s.DefaultParams.Clone(tc.opts.Params)
			for _, v := range forest {
				c := planCandidate(s, tc.opts, paramTry{p: full, idx: int(v.Trace.Header.Seed - tc.opts.BaseSeed)})
				scratch := s.Exec(scenario.ExecOptions{Seed: c.Seed, Params: c.Params, Scheduler: c.Scheduler(), Inputs: c.Inputs()})
				if err := runDiff(v, scratch); err != nil {
					t.Fatalf("forest view of candidate %d: %v", c.Seed, err)
				}
			}
		})
	}
}

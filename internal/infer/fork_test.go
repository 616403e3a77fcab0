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

// TestForkerBoundaries drives the forker directly through the pruning
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
	mk := func(seed int64, forced []trace.Value) candidate {
		vals := map[string][]trace.Value{"xfer.pick": forced}
		return candidate{
			Seed:      seed,
			Scheduler: func() vm.Scheduler { return vm.NewReplayScheduler(sched) },
			Inputs: func() vm.InputSource {
				return &vm.MapInputs{Values: vals, Base: s.SearchSource(9, s.DefaultParams)}
			},
		}
	}
	scratchOf := func(c candidate) *scenario.RunView {
		return s.Exec(scenario.ExecOptions{Seed: c.Seed, Scheduler: c.Scheduler(), Inputs: c.Inputs()})
	}
	same := func(label string, got, want *scenario.RunView) {
		t.Helper()
		if err := runDiff(got, want); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}

	f := newForker(forkerConfig{Scenario: s})
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

// TestForkedRunIsAllOrNothing pins the forker's two outcomes: a candidate
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
	mk := func(k int, scheduler func(int) vm.Scheduler) candidate {
		vals := append([]trace.Value(nil), picks...)
		if a := k / 2; a > 0 {
			vals[len(vals)-a] = trace.Int(vals[len(vals)-a].AsInt() + 1)
		}
		in := map[string][]trace.Value{"xfer.pick": vals}
		return candidate{
			Seed:      int64(100 + k),
			Scheduler: func() vm.Scheduler { return scheduler(k) },
			Inputs: func() vm.InputSource {
				return &vm.MapInputs{Values: in, Base: s.SearchSource(9, s.DefaultParams)}
			},
		}
	}
	var cands []candidate
	for k := 0; k < 8; k++ {
		cands = append(cands, mk(k, forced))
	}
	cands = append(cands, mk(2*len(picks), forced), mk(2*len(picks)+1, forced))
	for k := 0; k < 4; k++ {
		cands = append(cands, mk(k, random))
	}
	check := func(label string, f *forker, c candidate) (pruned bool, err error) {
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

	seq := newForker(forkerConfig{Scenario: s})
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

	par := newForker(forkerConfig{Scenario: s})
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
// plus the two running. Every view but the forest's and the last one,
// which the exhausted search returns, has Trace.Events nil once rejected,
// and every forest view still equals a from-scratch execution of its
// candidate: reuse never hands a retained array on.
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
			if last := views[len(views)-1]; out.View != last || last.Trace.Events == nil {
				t.Fatal("the exhausted search did not return its last candidate's view intact")
			}
			var forest []*scenario.RunView
			for _, v := range views[:len(views)-1] {
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

// TestSearchReusesRejectedMachines pins the machine reuse behind Discard,
// as TestSearchReusesRejectedTraces pins the trace reuse: a search that
// rejects all but its last candidate builds its candidates into as many
// machines as it allocates trace arrays — one sequentially, one more than
// the forest with Fork, at most 34 with two workers. Every rejected view
// but the forest's has Machine nil once discarded, and every forest view
// and the accepted view, built into a recycled machine, equal a
// from-scratch execution of their candidate.
func TestSearchReusesRejectedMachines(t *testing.T) {
	s := workload.Bank()
	cases := map[string]struct {
		opts        Options
		maxMachines int // -1: exactly one more than the forest
	}{
		"sequential": {Options{Budget: 60, BaseSeed: 3, Workers: 1}, 1},
		"forked":     {Options{Budget: 60, BaseSeed: 3, Workers: 1, Fork: true}, -1},
		"workers=2":  {Options{Budget: 60, BaseSeed: 3, Workers: 2}, 34},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			machines := make(map[*vm.Machine]bool)
			var views []*scenario.RunView
			out := Search(s, func(v *scenario.RunView) bool {
				machines[v.Machine] = true
				views = append(views, v)
				return len(views) == tc.opts.Budget
			}, tc.opts)
			if !out.Ok || out.Attempts != tc.opts.Budget {
				t.Fatalf("ok=%v attempts=%d, want the last of %d candidates accepted", out.Ok, out.Attempts, tc.opts.Budget)
			}
			var forest []*scenario.RunView
			for _, v := range views[:len(views)-1] {
				if (v.Machine == nil) != (v.Trace.Events == nil) {
					t.Fatalf("candidate %d: discarded machine %v but events %v", v.Trace.Header.Seed, v.Machine == nil, v.Trace.Events == nil)
				}
				if v.Machine != nil {
					forest = append(forest, v)
				}
			}
			bound := tc.maxMachines
			if bound < 0 {
				bound = 1 + len(forest)
				if len(forest) == 0 || len(machines) != bound {
					t.Fatalf("%d distinct machines with %d forest paths, want one more than the forest", len(machines), len(forest))
				}
			} else if len(forest) != 0 {
				t.Fatalf("%d rejected views kept their machines without a forest", len(forest))
			}
			if len(machines) > bound {
				t.Fatalf("%d candidates used %d distinct machines, want at most %d", out.Attempts, len(machines), bound)
			}
			full := s.DefaultParams.Clone(tc.opts.Params)
			for _, v := range append(forest, out.View) {
				c := planCandidate(s, tc.opts, paramTry{p: full, idx: int(v.Trace.Header.Seed - tc.opts.BaseSeed)})
				scratch := s.Exec(scenario.ExecOptions{Seed: c.Seed, Params: c.Params, Scheduler: c.Scheduler(), Inputs: c.Inputs()})
				if err := runDiff(v, scratch); err != nil {
					t.Fatalf("view of candidate %d: %v", c.Seed, err)
				}
			}
		})
	}
}

// agreesReference is agrees as one walk per retained path: every path
// with the candidate's parameters is walked on its own, with a fresh
// scheduler, input source and simulator, and the oldest path the
// candidate agrees with is returned.
func (f *forker) agreesReference(c candidate, pEff scenario.Params) *forkPath {
	for _, p := range f.forest {
		if !paramsEqual(p.params, pEff) {
			continue
		}
		sim, sched, inputs := vm.NewSchedSim(), c.Scheduler(), c.Inputs()
		events := p.view.Trace.Events
		counts := make([]int, len(p.streams))
		agrees := true
		for _, r := range p.rounds {
			if r.Seq >= uint64(len(events)) {
				agrees = false
				break
			}
			pick, ok := sim.Pick(sched, r.Seq, r.Enabled)
			if !ok || pick != r.Pick {
				agrees = false
				break
			}
			if e := &events[r.Seq]; e.Kind == trace.EvInput {
				idx := counts[e.Obj]
				counts[e.Obj]++
				if !inputs.Next(p.streams[e.Obj], idx).Equal(e.Val) {
					agrees = false
					break
				}
			}
		}
		if agrees && p.view.Result.Outcome != vm.OutcomeDiverged {
			return p
		}
	}
	return nil
}

// TestForestDryRunMatchesPerPath pins "one dry run per candidate": the
// one-pass agrees, which walks every retained path in lockstep with one
// scheduler and one input source, returns the same path as the per-path
// walk (agreesReference) for every later candidate, and calls each of the
// candidate's constructors exactly once. The forests mix what an output
// search over each scenario retains with paths that share long prefixes:
// one under the first candidate's schedule but other inputs, one that
// replays half its schedule and diverges, one under smaller parameters
// and one under larger ones that the step bound aborts.
func TestForestDryRunMatchesPerPath(t *testing.T) {
	for _, tc := range []struct {
		name         string
		small, large scenario.Params
	}{
		{"bank", scenario.Params{"transfers": 4}, scenario.Params{"transfers": 48}},
		{"hyperkv-dataloss", scenario.Params{"rows": 4}, scenario.Params{"rows": 64}},
		{"dynokv-staleread", scenario.Params{"rounds": 1}, scenario.Params{"rounds": 12}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := workload.ByName(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			o := Options{Budget: 40, BaseSeed: 7, ShrinkParams: []scenario.Params{tc.small}}
			plan := buildPlan(s, o)
			var cands []candidate
			for _, pt := range plan {
				cands = append(cands, planCandidate(s, o, pt))
			}
			first := cands[len(cands)-1]
			scratch := s.Exec(scenario.ExecOptions{Seed: first.Seed, Scheduler: first.Scheduler(), Inputs: first.Inputs()})
			half := scratch.Trace.Schedule()[:scratch.Result.Steps/2]
			mixed := candidate{Seed: 1, Scheduler: first.Scheduler, Inputs: cands[len(cands)-2].Inputs}
			diverging := candidate{Seed: 2, Scheduler: func() vm.Scheduler { return vm.NewReplayScheduler(half) }, Inputs: first.Inputs}
			large := candidate{Seed: 3, Scheduler: first.Scheduler, Inputs: first.Inputs, Params: tc.large}

			f := newForker(forkerConfig{Scenario: s, MaxSteps: 2 * scratch.Result.Steps})
			for _, c := range []candidate{first, mixed, diverging, cands[0], large, cands[len(cands)-3], cands[len(cands)-4], cands[len(cands)-5]} {
				f.Run(c)
			}
			outcomes := make(map[vm.Outcome]bool)
			for _, p := range f.forest {
				outcomes[p.view.Result.Outcome] = true
			}
			if len(f.forest) != maxForkPaths || !outcomes[vm.OutcomeDiverged] || !outcomes[vm.OutcomeAborted] {
				t.Fatalf("forest of %d paths with outcomes %v, want %d with a diverged and an aborted one", len(f.forest), outcomes, maxForkPaths)
			}

			hits := 0
			for _, c := range append(cands, first, mixed, diverging, large) {
				pEff := s.DefaultParams.Clone(c.Params)
				want := f.agreesReference(c, pEff)
				var scheds, inputs int
				counted := c
				counted.Scheduler = func() vm.Scheduler { scheds++; return c.Scheduler() }
				counted.Inputs = func() vm.InputSource { inputs++; return c.Inputs() }
				if got := f.agrees(counted, pEff); got != want {
					t.Fatalf("candidate %d: one-pass dry run agrees with %p, per-path walk with %p", c.Seed, got, want)
				}
				if scheds > 1 || inputs > 1 {
					t.Fatalf("candidate %d: one dry run built %d schedulers and %d input sources", c.Seed, scheds, inputs)
				}
				if want != nil {
					hits++
					if scheds != 1 || inputs != 1 {
						t.Fatalf("candidate %d agreed without a dry run", c.Seed)
					}
				}
			}
			if hits < 4 {
				t.Fatalf("%d candidates agreed with a retained path, want at least the four forest members rerun", hits)
			}
		})
	}
}

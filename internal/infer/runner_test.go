package infer

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"debugdet/internal/par"
	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
	"debugdet/internal/workload"
)

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

// runDiff reports how a search's view differs from a from-scratch
// execution of the same candidate: outcome, steps, cycles, events, site
// names, outputs or inputs.
func runDiff(got, want *scenario.RunView) error {
	switch {
	case got.Result.Outcome != want.Result.Outcome:
		return fmt.Errorf("outcome %v, want %v", got.Result.Outcome, want.Result.Outcome)
	case got.Result.Steps != want.Result.Steps || got.Result.Cycles != want.Result.Cycles:
		return fmt.Errorf("steps/cycles %d/%d, want %d/%d",
			got.Result.Steps, got.Result.Cycles, want.Result.Steps, want.Result.Cycles)
	case !trace.EventsEqual(got.Trace, want.Trace, false):
		return fmt.Errorf("traces differ")
	case !slices.Equal(got.Trace.Sites.Names(), want.Trace.Sites.Names()):
		return fmt.Errorf("site tables differ")
	case !reflect.DeepEqual(got.Result.Outputs, want.Result.Outputs):
		return fmt.Errorf("outputs differ")
	case !reflect.DeepEqual(got.Result.InputsUsed, want.Result.InputsUsed):
		return fmt.Errorf("inputs differ")
	}
	return nil
}

// reuseCases are the search shapes the reuse pins run: every candidate in
// flight holds its own machine, one sequentially and, with two workers, at
// most par.Ordered's window (16 per worker) plus the two running.
var reuseCases = map[string]struct {
	opts Options
	max  int
}{
	"sequential": {Options{Budget: 60, BaseSeed: 3, Workers: 1}, 1},
	"workers=2":  {Options{Budget: 60, BaseSeed: 3, Workers: 2}, 34},
}

// TestSearchReusesRejectedTraces pins the trace reuse behind Discard: a
// search that rejects every candidate allocates one trace array per
// candidate in flight, not one per candidate. Sequentially that is one
// array; with two workers, at most par.Ordered's window (16 per worker)
// plus the two running. Every view but the last one, which the exhausted
// search returns, has Trace.Events nil once rejected.
func TestSearchReusesRejectedTraces(t *testing.T) {
	s := workload.Bank()
	for name, tc := range reuseCases {
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
			if len(arrays) > tc.max {
				t.Fatalf("%d rejected candidates used %d distinct trace arrays, want at most %d",
					out.Attempts, len(arrays), tc.max)
			}
			if last := views[len(views)-1]; out.View != last || last.Trace.Events == nil {
				t.Fatal("the exhausted search did not return its last candidate's view intact")
			}
			for _, v := range views[:len(views)-1] {
				if v.Trace.Events != nil {
					t.Fatalf("rejected candidate %d kept its events", v.Trace.Header.Seed)
				}
			}
		})
	}
}

// TestSearchReusesRejectedMachines pins the machine reuse behind Discard,
// as TestSearchReusesRejectedTraces pins the trace reuse: a search that
// rejects all but its last candidate builds its candidates into as many
// machines as it allocates trace arrays — one sequentially, at most 34
// with two workers. Every rejected view has Machine, Trace.Events and its
// Result's InputsUsed and Outputs nil once discarded, and the accepted view, built into a recycled machine, equals a
// from-scratch execution of its candidate.
func TestSearchReusesRejectedMachines(t *testing.T) {
	s := workload.Bank()
	for name, tc := range reuseCases {
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
			for _, v := range views[:len(views)-1] {
				if v.Machine != nil || v.Trace.Events != nil || v.Result.InputsUsed != nil || v.Result.Outputs != nil {
					t.Fatalf("rejected candidate %d kept its machine, its events or its result maps", v.Trace.Header.Seed)
				}
			}
			if len(machines) > tc.max {
				t.Fatalf("%d candidates used %d distinct machines, want at most %d", out.Attempts, len(machines), tc.max)
			}
			c := newPlan(s, tc.opts).candidate(int(out.View.Trace.Header.Seed - tc.opts.BaseSeed))
			if err := runDiff(out.View, s.Exec(c)); err != nil {
				t.Fatalf("accepted candidate %d: %v", c.Seed, err)
			}
		})
	}
}

// generator returns the address of the generator m's scheduler draws
// from, 0 when the scheduler has none (it is not a random or PCT one).
func generator(m *vm.Machine) uintptr {
	sched := reflect.ValueOf(m).Elem().FieldByName("sched").Elem()
	if sched.Kind() != reflect.Pointer {
		return 0
	}
	rng := sched.Elem().FieldByName("rng")
	if !rng.IsValid() {
		return 0
	}
	return rng.Pointer()
}

// TestSearchReusesGenerators pins the generator reuse behind vm.Recycle,
// as TestSearchReusesRejectedMachines pins the machine reuse: the random
// and PCT schedulers of a search that rejects its candidates draw from as
// few distinct generators as the candidates use machines, each built into
// a spare reseeding the generator its last scheduler drew from.
func TestSearchReusesGenerators(t *testing.T) {
	s := workload.Bank()
	for name, tc := range reuseCases {
		t.Run(name, func(t *testing.T) {
			machines := make(map[*vm.Machine]bool)
			gens := make(map[uintptr]bool)
			out := Search(s, func(v *scenario.RunView) bool {
				machines[v.Machine] = true
				gens[generator(v.Machine)] = true
				return false
			}, tc.opts)
			if out.Ok || out.Attempts != tc.opts.Budget {
				t.Fatalf("ok=%v attempts=%d, want every one of %d candidates rejected", out.Ok, out.Attempts, tc.opts.Budget)
			}
			if gens[0] {
				t.Fatal("a candidate's scheduler drew from no generator")
			}
			if len(gens) > len(machines) || len(gens) > tc.max {
				t.Fatalf("%d candidates on %d machines drew from %d distinct generators, want at most %d",
					out.Attempts, len(machines), len(gens), min(len(machines), tc.max))
			}
		})
	}
}

// TestSearchReusesSiteTables pins the site-table reuse behind vm.Recycle:
// a search that rejects its candidates registers their sites in as few
// distinct tables as the candidates use machines, and every rejected
// view's Trace.Sites is nil once discarded.
func TestSearchReusesSiteTables(t *testing.T) {
	s := workload.Bank()
	for name, tc := range reuseCases {
		t.Run(name, func(t *testing.T) {
			machines := make(map[*vm.Machine]bool)
			tables := make(map[*trace.SiteTable]bool)
			var views []*scenario.RunView
			out := Search(s, func(v *scenario.RunView) bool {
				machines[v.Machine] = true
				tables[v.Trace.Sites] = true
				views = append(views, v)
				return false
			}, tc.opts)
			if out.Ok || out.Attempts != tc.opts.Budget {
				t.Fatalf("ok=%v attempts=%d, want every one of %d candidates rejected", out.Ok, out.Attempts, tc.opts.Budget)
			}
			if len(tables) > len(machines) || len(tables) > tc.max {
				t.Fatalf("%d candidates on %d machines used %d distinct site tables, want at most %d",
					out.Attempts, len(machines), len(tables), min(len(machines), tc.max))
			}
			for _, v := range views[:len(views)-1] {
				if v.Trace.Sites != nil {
					t.Fatalf("rejected candidate %d kept its site table", v.Trace.Header.Seed)
				}
			}
		})
	}
}

// TestSearchReusesStreamHistories pins the history reuse behind
// vm.Recycle, as TestSearchReusesSiteTables pins the site-table reuse: a
// search that rejects its candidates appends each one's inputs and
// outputs into the arrays the candidate its machine ran before left, so a
// stream's history moves to a new array only when a candidate outgrows
// every earlier one on its machine.
func TestSearchReusesStreamHistories(t *testing.T) {
	s := workload.Bank()
	type history struct {
		m      *vm.Machine
		stream string
		output bool
	}
	for name, tc := range reuseCases {
		t.Run(name, func(t *testing.T) {
			longest := make(map[history]int)
			arrays := make(map[*trace.Value]bool)
			grown := 0
			note := func(m *vm.Machine, h map[string][]trace.Value, output bool) {
				for stream, vals := range h {
					k := history{m, stream, output}
					if len(vals) > longest[k] {
						longest[k] = len(vals)
						grown++
					}
					arrays[&vals[0]] = true
				}
			}
			out := Search(s, func(v *scenario.RunView) bool {
				note(v.Machine, v.Result.InputsUsed, false)
				note(v.Machine, v.Result.Outputs, true)
				return false
			}, tc.opts)
			if out.Ok || out.Attempts != tc.opts.Budget {
				t.Fatalf("ok=%v attempts=%d, want every one of %d candidates rejected", out.Ok, out.Attempts, tc.opts.Budget)
			}
			if len(longest) == 0 {
				t.Fatal("no candidate consumed an input or wrote an output")
			}
			if len(arrays) > grown {
				t.Fatalf("%d candidates kept their histories in %d distinct arrays, but outgrew their machines' earlier ones only %d times",
					out.Attempts, len(arrays), grown)
			}
		})
	}
}

// TestCrossoverCandidateMatchesFresh: a PCT candidate built into a random
// candidate's spare, and a random one into a PCT one's, takes over the
// spare's machine and generator and runs exactly as a fresh execution of
// its candidate, site names included.
func TestCrossoverCandidateMatchesFresh(t *testing.T) {
	s := workload.Bank()
	pl := newPlan(s, Options{BaseSeed: 3})
	cases := map[string]struct {
		donor, cand int
		sched       string
	}{
		"pct into random": {0, 2, "pct"},
		"random into pct": {2, 3, "random"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			r := &runner{s: s}
			defer r.hosts.Close()
			donor := r.Run(pl.candidate(tc.donor))
			m, gen := donor.Machine, generator(donor.Machine)
			r.Discard(donor)
			c := pl.candidate(tc.cand)
			if c.Scheduler.Name() != tc.sched {
				t.Fatalf("candidate %d runs %s, want %s", tc.cand, c.Scheduler.Name(), tc.sched)
			}
			got := r.Run(c)
			if got.Machine != m || generator(got.Machine) != gen {
				t.Fatal("the candidate did not take over the spare's machine and generator")
			}
			if err := runDiff(got, s.Exec(pl.candidate(tc.cand))); err != nil {
				t.Fatalf("candidate %d built into candidate %d's spare: %v", tc.cand, tc.donor, err)
			}
		})
	}
}

// TestSearchReusesThreadHosts pins the coroutine reuse behind the runner's
// host pool, as TestSearchReusesRejectedMachines pins the machine reuse. A
// search's hosts live until Search returns, so the goroutines accept sees
// beyond the baseline and the workers are the hosts made so far: a
// 60-candidate hyperkv-dataloss search makes at most one run's threads of
// them sequentially and at most 34 runs' worth with two workers, not one
// per thread of every candidate, and ends them all before it returns.
func TestSearchReusesThreadHosts(t *testing.T) {
	s, err := workload.ByName("hyperkv-dataloss")
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]struct {
		opts    Options
		maxRuns int
	}{
		"sequential": {Options{Budget: 60, BaseSeed: 3, Workers: 1}, 1},
		"workers=2":  {Options{Budget: 60, BaseSeed: 3, Workers: 2}, 34},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			workers := par.Workers(tc.opts.Workers, tc.opts.Budget)
			if workers == 1 {
				workers = 0 // Ordered runs a single worker on the caller's goroutine
			}
			hosts, threads := 0, 0
			out := Search(s, func(v *scenario.RunView) bool {
				hosts = max(hosts, runtime.NumGoroutine()-before-workers)
				threads = max(threads, len(v.Machine.Threads()))
				return false
			}, tc.opts)
			if out.Ok || out.Attempts != tc.opts.Budget {
				t.Fatalf("ok=%v attempts=%d, want every one of %d candidates rejected", out.Ok, out.Attempts, tc.opts.Budget)
			}
			if hosts == 0 {
				t.Fatal("no thread coroutine outlived its candidate: nothing was pooled")
			}
			if hosts > tc.maxRuns*threads {
				t.Fatalf("%d candidates of up to %d threads made %d hosts, want at most %d",
					out.Attempts, threads, hosts, tc.maxRuns*threads)
			}
			n := runtime.NumGoroutine()
			for i := 0; n > before && i < 200; i++ {
				time.Sleep(5 * time.Millisecond) // a finished worker may not have exited yet
				n = runtime.NumGoroutine()
			}
			if n > before {
				t.Fatalf("%d goroutines before the search, %d after it returned", before, n)
			}
		})
	}
}

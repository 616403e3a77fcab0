package infer

import (
	"fmt"
	"reflect"
	"runtime"
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

// TestSearchReusesRejectedTraces pins the trace reuse behind Discard: a
// search that rejects every candidate allocates one trace array per
// candidate in flight, not one per candidate. Sequentially that is one
// array; with two workers, at most par.Ordered's window (16 per worker)
// plus the two running. Every view but the last one, which the exhausted
// search returns, has Trace.Events nil once rejected.
func TestSearchReusesRejectedTraces(t *testing.T) {
	s := workload.Bank()
	cases := map[string]struct {
		opts      Options
		maxArrays int
	}{
		"sequential": {Options{Budget: 60, BaseSeed: 3, Workers: 1}, 1},
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
			if len(arrays) > tc.maxArrays {
				t.Fatalf("%d rejected candidates used %d distinct trace arrays, want at most %d",
					out.Attempts, len(arrays), tc.maxArrays)
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
// with two workers. Every rejected view has Machine nil once discarded,
// and the accepted view, built into a recycled machine, equals a
// from-scratch execution of its candidate.
func TestSearchReusesRejectedMachines(t *testing.T) {
	s := workload.Bank()
	cases := map[string]struct {
		opts        Options
		maxMachines int
	}{
		"sequential": {Options{Budget: 60, BaseSeed: 3, Workers: 1}, 1},
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
			for _, v := range views[:len(views)-1] {
				if v.Machine != nil || v.Trace.Events != nil {
					t.Fatalf("rejected candidate %d kept its machine or its events", v.Trace.Header.Seed)
				}
			}
			if len(machines) > tc.maxMachines {
				t.Fatalf("%d candidates used %d distinct machines, want at most %d", out.Attempts, len(machines), tc.maxMachines)
			}
			full := s.DefaultParams.Clone(tc.opts.Params)
			c := planCandidate(s, tc.opts, int(out.View.Trace.Header.Seed-tc.opts.BaseSeed), full)
			if err := runDiff(out.View, s.Exec(c)); err != nil {
				t.Fatalf("accepted candidate %d: %v", c.Seed, err)
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

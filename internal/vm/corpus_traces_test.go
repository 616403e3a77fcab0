package vm_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
	"debugdet/internal/workload"
)

var updateTraces = flag.Bool("update", false, "rewrite testdata/corpus_traces.golden from the current VM")

// corpusTraceLines runs every corpus scenario and variant at its default
// seed under the random and the PCT scheduler and renders one line per run:
// outcome, counters, and FNV-64a hashes of the encoded trace and of the
// round log.
func corpusTraceLines(t *testing.T, disableInline bool) string {
	var b strings.Builder
	for _, s := range append(workload.All(), workload.Variants()...) {
		steps := uint64(0)
		for _, sched := range []string{"random", "pct"} {
			log := &vm.RoundLog{Scheduler: vm.NewRandomScheduler(s.DefaultSeed)}
			if sched == "pct" {
				log.Scheduler = vm.NewPCTScheduler(s.DefaultSeed, steps, 3)
			}
			o := scenario.ExecOptions{Seed: s.DefaultSeed, Scheduler: log, MaxSteps: stepBound}
			if disableInline {
				o.ObserverFactory = func(m *vm.Machine) []vm.Observer { m.DisableInline(); return nil }
			}
			v := s.Exec(o)
			steps = v.Result.Steps
			h := fnv.New64a()
			if _, err := trace.Encode(h, v.Trace); err != nil {
				t.Fatalf("%s/%s: encode: %v", s.Name, sched, err)
			}
			r := v.Result
			fmt.Fprintf(&b, "%s %s outcome=%s steps=%d cycles=%d rounds=%d evals=%d trace=%016x roundlog=%016x\n",
				s.Name, sched, r.Outcome, r.Steps, r.Cycles, r.SchedRounds, r.SchedEvals, h.Sum64(), roundsHash(log.Rounds))
		}
	}
	return b.String()
}

// TestCorpusTracesGolden pins what the VM executes — events, virtual time,
// scheduling rounds and what each round offered — against lines generated
// before VM threads moved from goroutines onto coroutines (the trace hashes
// were regenerated when the log format dropped its labels, from the same
// executions): however a thread is hosted and whether or not ops apply
// inline, every run of the corpus is the run it was. Regenerate (only when an execution is meant to change) with
// `go test ./internal/vm -run TestCorpusTracesGolden -update`.
func TestCorpusTracesGolden(t *testing.T) {
	const golden = "testdata/corpus_traces.golden"
	got := corpusTraceLines(t, false)
	if *updateTraces {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	for name, lines := range map[string]string{"inline": got, "disableInline": corpusTraceLines(t, true)} {
		if lines == string(want) {
			continue
		}
		w := strings.Split(string(want), "\n")
		for i, l := range strings.Split(lines, "\n") {
			if i >= len(w) || l != w[i] {
				t.Errorf("%s, line %d:\n got %s\nwant %s", name, i+1, l, append(w, "")[min(i, len(w))])
			}
		}
	}
}

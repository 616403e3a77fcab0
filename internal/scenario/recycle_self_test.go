package scenario_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
	"debugdet/internal/workload"
)

// TestRecycledIntoItselfMatchesFresh: every networked corpus scenario run
// twice on one machine, the second run built into the first (ExecInto, as
// a search builds a candidate into its rejected predecessor), yields a
// fresh run's execution both times. The second run finds its own mesh on
// the machine, the case TestRecycledRunMatchesFresh's donor chain, which
// never recycles a scenario into its own machine, leaves out.
func TestRecycledIntoItselfMatchesFresh(t *testing.T) {
	hosts := new(vm.Hosts)
	defer hosts.Close()
	networked := 0
	for _, s := range workload.All() {
		o := scenario.ExecOptions{Seed: s.DefaultSeed}
		fresh := s.Exec(o)
		if !slices.ContainsFunc(fresh.Machine.StreamNames(), func(name string) bool { return strings.HasPrefix(name, "net.lat:") }) {
			continue
		}
		networked++
		first := scenario.ExecInto(s, o, nil, hosts)
		sameRun(t, s.Name+" first run", first, fresh)
		m := first.Machine
		second := scenario.ExecInto(s, o, first, hosts)
		if second.Machine != m {
			t.Fatalf("%s: the second run ran on a new machine", s.Name)
		}
		sameRun(t, s.Name+" second run", second, fresh)
	}
	t.Logf("%d networked scenarios", networked)
	if networked == 0 {
		t.Fatal("no corpus scenario builds a network")
	}
}

// sameRun fails t unless got executed as fresh did.
func sameRun(t *testing.T, name string, got, fresh *scenario.RunView) {
	t.Helper()
	switch {
	case got.Result.Outcome != fresh.Result.Outcome:
		t.Fatalf("%s: outcome %v, fresh %v", name, got.Result.Outcome, fresh.Result.Outcome)
	case got.Result.Steps != fresh.Result.Steps || got.Result.Cycles != fresh.Result.Cycles:
		t.Fatalf("%s: steps/cycles %d/%d, fresh %d/%d", name,
			got.Result.Steps, got.Result.Cycles, fresh.Result.Steps, fresh.Result.Cycles)
	case !trace.EventsEqual(got.Trace, fresh.Trace, false):
		t.Fatalf("%s: trace differs from a fresh run's", name)
	case !slices.Equal(got.Trace.Sites.Names(), fresh.Trace.Sites.Names()):
		t.Fatalf("%s: site table differs from a fresh run's", name)
	case !slices.Equal(got.Machine.StreamNames(), fresh.Machine.StreamNames()):
		t.Fatalf("%s: stream table differs from a fresh run's", name)
	case !reflect.DeepEqual(got.Result.Outputs, fresh.Result.Outputs):
		t.Fatalf("%s: outputs differ from a fresh run's", name)
	case !reflect.DeepEqual(got.Result.InputsUsed, fresh.Result.InputsUsed):
		t.Fatalf("%s: inputs differ from a fresh run's", name)
	}
}

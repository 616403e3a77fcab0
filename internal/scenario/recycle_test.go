package scenario_test

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
	"debugdet/internal/workload"
)

// TestRecycledRunMatchesFresh pins recycled ≡ fresh: every corpus
// scenario run into the machine and trace array of another scenario's
// finished run, its threads on the coroutines that run's threads left idle
// (ExecInto, vm.Recycle), yields the trace, outputs, inputs and outcome of
// a run on a fresh machine, site table included. The donors chain through
// the corpus, so each table is refilled after growing and after shrinking;
// a stale channel buffer, name-map or site-table entry, thread field or
// host shows as a different execution. Once the pool is closed no coroutine is left.
func TestRecycledRunMatchesFresh(t *testing.T) {
	before := runtime.NumGoroutine()
	hosts := new(vm.Hosts)
	corpus := workload.All()
	last := corpus[len(corpus)-1]
	donor := scenario.ExecInto(last, scenario.ExecOptions{Seed: last.DefaultSeed}, nil, hosts)
	for _, s := range corpus {
		o := scenario.ExecOptions{Seed: s.DefaultSeed}
		fresh := s.Exec(o)
		m := donor.Machine
		cells, streams := objectNames(m)
		got := scenario.ExecInto(s, o, donor, hosts)
		switch {
		case got.Machine != m:
			t.Fatalf("%s: ran on a new machine, not the donor's", s.Name)
		case got.Result.Outcome != fresh.Result.Outcome:
			t.Fatalf("%s: outcome %v, fresh %v", s.Name, got.Result.Outcome, fresh.Result.Outcome)
		case got.Result.Steps != fresh.Result.Steps || got.Result.Cycles != fresh.Result.Cycles:
			t.Fatalf("%s: steps/cycles %d/%d, fresh %d/%d", s.Name,
				got.Result.Steps, got.Result.Cycles, fresh.Result.Steps, fresh.Result.Cycles)
		case !trace.EventsEqual(got.Trace, fresh.Trace, false):
			t.Fatalf("%s: trace differs from a fresh run's", s.Name)
		case !slices.Equal(got.Trace.Sites.Names(), fresh.Trace.Sites.Names()):
			t.Fatalf("%s: site table differs from a fresh run's", s.Name)
		case !reflect.DeepEqual(got.Result.Outputs, fresh.Result.Outputs):
			t.Fatalf("%s: outputs differ from a fresh run's", s.Name)
		case !reflect.DeepEqual(got.Result.InputsUsed, fresh.Result.InputsUsed):
			t.Fatalf("%s: inputs differ from a fresh run's", s.Name)
		}
		for _, name := range cells {
			id, ok := got.Machine.CellID(name)
			if fid, fok := fresh.Machine.CellID(name); id != fid || ok != fok {
				t.Fatalf("%s: cell %q resolves to %d/%v, fresh %d/%v", s.Name, name, id, ok, fid, fok)
			}
		}
		for _, name := range streams {
			id, ok := got.Machine.StreamID(name)
			if fid, fok := fresh.Machine.StreamID(name); id != fid || ok != fok {
				t.Fatalf("%s: stream %q resolves to %d/%v, fresh %d/%v", s.Name, name, id, ok, fid, fok)
			}
		}
		donor = got
	}
	hosts.Close()
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines before the runs, %d after closing their hosts", before, n)
	}
}

// objectNames lists a machine's cell and stream names, read before the
// machine is recycled: none may resolve in the next run unless that run
// registered it too.
func objectNames(m *vm.Machine) (cells, streams []string) {
	for id := trace.ObjID(0); m.CellName(id) != ""; id++ {
		cells = append(cells, m.CellName(id))
	}
	return cells, m.StreamNames()
}

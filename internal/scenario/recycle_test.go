package scenario_test

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"debugdet/internal/progen"
	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
	"debugdet/internal/workload"
)

// recycleRun is one scenario run of a donor order, with a fresh run's view
// made once for all orders.
type recycleRun struct {
	name  string
	s     *scenario.Scenario
	o     scenario.ExecOptions
	fresh *scenario.RunView
}

// TestRecycledRunMatchesFresh pins recycled ≡ fresh: every scenario run
// into the machine and trace array of a finished run, its threads on the
// coroutines that run's threads left idle (ExecInto, vm.Recycle), yields
// the trace, outputs, inputs and outcome of a run on a fresh machine, site
// table and every channel's and stream's name and ID included. Each order
// chains its runs through one machine, each scenario twice in a row (the
// second run finds its own mesh): the corpus in catalog order and in
// seeded permutations (its networked scenarios build meshes of several
// node sets), and the generated programs of seeds 0..49, whose
// lost-message programs build a two-node mesh, with seed-chosen link and
// inbox settings, between programs that build none. So each table is
// refilled after growing and after shrinking; a stale channel buffer,
// name-map or site-table entry, thread field, host or channel name left by
// an earlier mesh shows as a different execution. Once the pool is closed
// no coroutine is left.
func TestRecycledRunMatchesFresh(t *testing.T) {
	before := runtime.NumGoroutine()
	hosts := new(vm.Hosts)
	var corpus, generated []*recycleRun
	for _, s := range workload.All() {
		corpus = append(corpus, &recycleRun{name: s.Name, s: s, o: scenario.ExecOptions{Seed: s.DefaultSeed}})
	}
	for seed := range int64(50) {
		p := progen.ForSeed(seed)
		generated = append(generated, &recycleRun{
			name: fmt.Sprintf("%s gen=%d", p.Scenario.Name, seed), s: p.Scenario,
			o: scenario.ExecOptions{Seed: p.Seed, Params: p.Params},
		})
	}
	orders := [][]*recycleRun{corpus, generated}
	for seed := range uint64(3) {
		rng := rand.New(rand.NewPCG(seed, 61))
		order := slices.Clone(corpus)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		orders = append(orders, order)
	}
	for _, order := range orders {
		last := order[len(order)-1]
		donor := scenario.ExecInto(last.s, last.o, nil, hosts)
		for _, r := range order {
			if r.fresh == nil {
				r.fresh = r.s.Exec(r.o)
			}
			for range 2 {
				donor = recycledRun(t, r, donor, hosts)
			}
		}
	}
	hosts.Close()
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines before the runs, %d after closing their hosts", before, n)
	}
}

// recycledRun runs r built into donor and fails t unless it executed as
// r's fresh run did, on donor's machine.
func recycledRun(t *testing.T, r *recycleRun, donor *scenario.RunView, hosts *vm.Hosts) *scenario.RunView {
	t.Helper()
	fresh := r.fresh
	m := donor.Machine
	cells, streams := objectNames(m)
	got := scenario.ExecInto(r.s, r.o, donor, hosts)
	switch {
	case got.Machine != m:
		t.Fatalf("%s: ran on a new machine, not the donor's", r.name)
	case got.Result.Outcome != fresh.Result.Outcome:
		t.Fatalf("%s: outcome %v, fresh %v", r.name, got.Result.Outcome, fresh.Result.Outcome)
	case got.Result.Steps != fresh.Result.Steps || got.Result.Cycles != fresh.Result.Cycles:
		t.Fatalf("%s: steps/cycles %d/%d, fresh %d/%d", r.name,
			got.Result.Steps, got.Result.Cycles, fresh.Result.Steps, fresh.Result.Cycles)
	case !trace.EventsEqual(got.Trace, fresh.Trace, false):
		t.Fatalf("%s: trace differs from a fresh run's", r.name)
	case !slices.Equal(got.Trace.Sites.Names(), fresh.Trace.Sites.Names()):
		t.Fatalf("%s: site table differs from a fresh run's", r.name)
	case !slices.Equal(got.Machine.StreamNames(), fresh.Machine.StreamNames()):
		t.Fatalf("%s: stream table differs from a fresh run's", r.name)
	case !slices.Equal(chanNames(got.Machine), chanNames(fresh.Machine)):
		t.Fatalf("%s: channels %q, fresh %q", r.name, chanNames(got.Machine), chanNames(fresh.Machine))
	case !reflect.DeepEqual(got.Result.Outputs, fresh.Result.Outputs):
		t.Fatalf("%s: outputs differ from a fresh run's", r.name)
	case !reflect.DeepEqual(got.Result.InputsUsed, fresh.Result.InputsUsed):
		t.Fatalf("%s: inputs differ from a fresh run's", r.name)
	}
	for _, name := range cells {
		id, ok := got.Machine.CellID(name)
		if fid, fok := fresh.Machine.CellID(name); id != fid || ok != fok {
			t.Fatalf("%s: cell %q resolves to %d/%v, fresh %d/%v", r.name, name, id, ok, fid, fok)
		}
	}
	for _, name := range streams {
		id, ok := got.Machine.StreamID(name)
		if fid, fok := fresh.Machine.StreamID(name); id != fid || ok != fok {
			t.Fatalf("%s: stream %q resolves to %d/%v, fresh %d/%v", r.name, name, id, ok, fid, fok)
		}
	}
	return got
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

// chanNames lists a machine's channel names, indexed by channel ID.
func chanNames(m *vm.Machine) []string {
	names := make([]string, m.NumChans())
	for id := range names {
		names[id] = m.ChanName(trace.ObjID(id))
	}
	return names
}

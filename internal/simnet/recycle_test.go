package simnet

import (
	"fmt"
	"strings"
	"testing"

	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// meshProgram is TestMeshLayout's program with its parts made optional:
// the nodes are added in the order given, the c→a link is overridden when
// override is set, and c sends to a and to b. With two set, a second
// network with the same nodes is built on the machine too and carries the
// c→b message, each network with its own pumps.
type meshProgram struct {
	nodes    []string
	override bool
	two      bool
}

// meshOptions run a mesh program as TestMeshLayout does.
var meshOptions = scenario.ExecOptions{Seed: 1, Inputs: vm.SeededInputs(1, 100)}

// exec runs p through the launcher, built into spare's machine when spare
// is not nil (a search's recycling, vm.Recycle), and describes the run as
// TestMeshLayout does: every channel and stream with its ID, every spawn
// with its thread ID, every input with its stream, and the delivery times.
func (p meshProgram) exec(t *testing.T, spare *scenario.RunView) (*scenario.RunView, string) {
	t.Helper()
	var atA, atB uint64
	s := &scenario.Scenario{Name: "mesh", Build: func(m *vm.Machine, _ scenario.Params) func(*vm.Thread) {
		build := func() *Network {
			net := New(m, Options{DefaultLink: LinkConfig{LatencyBase: 10}})
			for _, name := range p.nodes {
				net.AddNode(name)
			}
			net.Build()
			return net
		}
		toA := build()
		if p.override {
			toA.SetLink("c", "a", LinkConfig{LatencyBase: 500, LatencyJitter: 7})
		}
		toB := toA
		if p.two {
			toB = build()
		}
		s := m.Site("test")
		return func(t *vm.Thread) {
			toA.Start(t)
			if toB != toA {
				toB.Start(t)
			}
			t.Spawn(s, "c", func(t *vm.Thread) {
				toA.Send(t, s, "c", "a", Message{Kind: "x", From: "c"})
				toB.Send(t, s, "c", "b", Message{Kind: "y", From: "c"})
			})
			t.Spawn(s, "a", func(t *vm.Thread) {
				toA.Recv(t, s, "a")
				atA = t.Now()
			})
			t.Spawn(s, "b", func(t *vm.Thread) {
				toB.Recv(t, s, "b")
				atB = t.Now()
			})
		}
	}}
	v := scenario.ExecInto(s, meshOptions, spare, nil)
	if v.Result.Outcome != vm.OutcomeOK {
		t.Fatalf("%+v: outcome %v", p, v.Result.Outcome)
	}
	m := v.Machine
	var b strings.Builder
	for id := 0; id < m.NumChans(); id++ {
		fmt.Fprintf(&b, "chan %d %s\n", id, m.ChanName(trace.ObjID(id)))
	}
	for id, name := range m.StreamNames() {
		fmt.Fprintf(&b, "stream %d %s\n", id, name)
	}
	for _, e := range v.Trace.Events {
		switch e.Kind {
		case trace.EvSpawn:
			fmt.Fprintf(&b, "spawn tid=%d %s\n", e.Obj, e.Val.Str)
		case trace.EvInput:
			fmt.Fprintf(&b, "input tid=%d %s\n", e.TID, m.StreamName(e.Obj))
		}
	}
	fmt.Fprintf(&b, "delivered a@%d b@%d\n", atA, atB)
	return v, b.String()
}

// TestRecycledMeshMatchesFresh: a network built on a recycled machine lays
// out and runs exactly as one built on a fresh machine, whatever network
// the machine's previous run built. The steps chain on one machine: the
// same nodes with and without a link override (an override left from the
// previous run would move a's delivery), a different node set, the same
// nodes again after it, two networks with the same nodes in one run, and
// the same nodes after those.
func TestRecycledMeshMatchesFresh(t *testing.T) {
	abc := []string{"c", "a", "b"}
	steps := []struct {
		name string
		p    meshProgram
	}{
		{"same nodes, override", meshProgram{nodes: abc, override: true}},
		{"same nodes, no override", meshProgram{nodes: abc}},
		{"another node set", meshProgram{nodes: []string{"d", "c", "a", "b"}, override: true}},
		{"the first node set again", meshProgram{nodes: abc, override: true}},
		{"two networks in one run", meshProgram{nodes: abc, override: true, two: true}},
		{"one network after two", meshProgram{nodes: abc}},
	}
	_, withOverride := steps[0].p.exec(t, nil)
	if _, without := steps[1].p.exec(t, nil); without == withOverride {
		t.Fatal("the override moves nothing: a leaked override would not show")
	}
	v, _ := meshProgram{nodes: abc, override: true}.exec(t, nil)
	for _, step := range steps {
		_, want := step.p.exec(t, nil)
		m := v.Machine
		var got string
		if v, got = step.p.exec(t, v); v.Machine != m {
			t.Fatalf("%s: ran on a new machine, not the recycled one", step.name)
		}
		if got != want {
			t.Fatalf("%s: recycled run:\n%s\nfresh run:\n%s", step.name, got, want)
		}
	}
}

// TestRecycledMeshAllocatesNoPerLink: a run built into a machine whose
// previous run built a network with the same nodes allocates as many times
// for six nodes (30 links) as for three (6 links): New, AddNode and Build
// adopt the nodes, links and names, and the rest of the run does not
// depend on the mesh. The adopted link array is the previous network's;
// a second network of the same run gets its own.
func TestRecycledMeshAllocatesNoPerLink(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	allocs := map[int]float64{}
	for _, k := range []int{3, 6} {
		nodes := []string{"f", "e", "d", "c", "b", "a"}[:k]
		var nets []*Network
		count := 1
		s := &scenario.Scenario{Name: "mesh", Build: func(m *vm.Machine, _ scenario.Params) func(*vm.Thread) {
			nets = nets[:0]
			for range count {
				net := New(m, Options{})
				for _, name := range nodes {
					net.AddNode(name)
				}
				net.Build()
				nets = append(nets, net)
			}
			return func(*vm.Thread) {}
		}}
		v := scenario.ExecInto(s, meshOptions, nil, nil)
		prev := nets[0]
		v = scenario.ExecInto(s, meshOptions, v, nil)
		if &nets[0].links[1] != &prev.links[1] {
			t.Fatalf("%d nodes: the recycled network did not adopt its predecessor's links", k)
		}
		count = 2
		prev = nets[0]
		v = scenario.ExecInto(s, meshOptions, v, nil)
		if &nets[0].links[1] != &prev.links[1] || &nets[1].links[1] == &prev.links[1] {
			t.Fatalf("%d nodes: of two networks in one run, the first must adopt the links and the second not", k)
		}
		count = 1
		allocs[k] = testing.AllocsPerRun(20, func() { v = scenario.ExecInto(s, meshOptions, v, nil) })
	}
	if allocs[3] != allocs[6] {
		t.Fatalf("a run that builds a mesh on a recycled machine: %v allocations for 3 nodes, %v for 6", allocs[3], allocs[6])
	}
}

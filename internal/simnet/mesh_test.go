package simnet

import (
	"fmt"
	"strings"
	"testing"

	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// TestMeshLayout pins what a network allocates on its machine and in what
// order: the channel and stream of every link with their IDs, and every
// pump thread with its name and thread ID in spawn order. Nodes are added
// out of name order and one link is overridden, and a message crosses the
// overridden link and a default one, so a link found at the wrong index
// moves a delivery time or draws from another link's stream.
func TestMeshLayout(t *testing.T) {
	m := vm.New(vm.Config{Seed: 1, Inputs: vm.SeededInputs(1, 100), CollectTrace: true})
	net := New(m, Options{DefaultLink: LinkConfig{LatencyBase: 10}})
	for _, name := range []string{"c", "a", "b"} {
		net.AddNode(name)
	}
	net.Build()
	net.SetLink("c", "a", LinkConfig{LatencyBase: 500, LatencyJitter: 7})
	s := m.Site("test")
	var atA, atB uint64
	res := m.Run(func(t *vm.Thread) {
		net.Start(t)
		t.Spawn(s, "c", func(t *vm.Thread) {
			net.Send(t, s, "c", "a", Message{Kind: "x", From: "c"})
			net.Send(t, s, "c", "b", Message{Kind: "y", From: "c"})
		})
		t.Spawn(s, "a", func(t *vm.Thread) {
			net.Recv(t, s, "a")
			atA = t.Now()
		})
		t.Spawn(s, "b", func(t *vm.Thread) {
			net.Recv(t, s, "b")
			atB = t.Now()
		})
	})
	if res.Outcome != vm.OutcomeOK {
		t.Fatalf("outcome %v", res.Outcome)
	}

	var b strings.Builder
	for id := 0; id < m.NumChans(); id++ {
		fmt.Fprintf(&b, "chan %d %s\n", id, m.ChanName(trace.ObjID(id)))
	}
	for id, name := range m.StreamNames() {
		fmt.Fprintf(&b, "stream %d %s\n", id, name)
	}
	for _, e := range res.Trace.Events {
		switch e.Kind {
		case trace.EvSpawn:
			fmt.Fprintf(&b, "spawn tid=%d %s\n", e.Obj, e.Val.Str)
		case trace.EvInput:
			fmt.Fprintf(&b, "input tid=%d %s\n", e.TID, m.StreamName(e.Obj))
		}
	}
	fmt.Fprintf(&b, "delivered a@%d b@%d\n", atA, atB)

	const want = `chan 0 inbox:c
chan 1 inbox:a
chan 2 inbox:b
chan 3 link:a->b
chan 4 link:a->c
chan 5 link:b->a
chan 6 link:b->c
chan 7 link:c->a
chan 8 link:c->b
stream 0 net.lat:a->b
stream 1 net.drop:a->b
stream 2 net.lat:a->c
stream 3 net.drop:a->c
stream 4 net.lat:b->a
stream 5 net.drop:b->a
stream 6 net.lat:b->c
stream 7 net.drop:b->c
stream 8 net.lat:c->a
stream 9 net.drop:c->a
stream 10 net.lat:c->b
stream 11 net.drop:c->b
spawn tid=1 pump:a>b
spawn tid=2 pump:a>c
spawn tid=3 pump:b>a
spawn tid=4 pump:b>c
spawn tid=5 pump:c>a
spawn tid=6 pump:c>b
spawn tid=7 c
spawn tid=8 a
spawn tid=9 b
input tid=5 net.lat:c->a
delivered a@1508 b@1061
`
	got := b.String()
	if got != want {
		t.Fatalf("mesh layout:\n%s\nwant:\n%s", got, want)
	}
}

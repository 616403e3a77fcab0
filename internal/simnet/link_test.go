package simnet

import (
	"testing"

	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// oneShot sends a single message a→b and reports the delivery time.
func oneShot(t *testing.T, configure func(n *Network)) (uint64, *vm.Result) {
	t.Helper()
	m := vm.New(vm.Config{Seed: 1, Inputs: vm.SeededInputs(1, 100), CollectTrace: true})
	net := New(m, Options{})
	net.AddNode("a")
	net.AddNode("b")
	net.Build()
	if configure != nil {
		configure(net)
	}
	s := m.Site("test")
	var at uint64
	res := m.Run(func(t *vm.Thread) {
		net.Start(t)
		t.Spawn(s, "a", func(t *vm.Thread) {
			net.Send(t, s, "a", "b", Message{Kind: "x", From: "a"})
		})
		t.Spawn(s, "b", func(t *vm.Thread) {
			net.Recv(t, s, "b")
			at = t.Now()
		})
	})
	return at, res
}

func TestSetLinkOverridesDefault(t *testing.T) {
	fast, r1 := oneShot(t, nil)
	slow, r2 := oneShot(t, func(n *Network) {
		n.SetLink("a", "b", LinkConfig{LatencyBase: 50000})
	})
	if r1.Outcome != vm.OutcomeOK || r2.Outcome != vm.OutcomeOK {
		t.Fatalf("outcomes: %v %v", r1.Outcome, r2.Outcome)
	}
	if slow <= fast {
		t.Fatalf("per-link latency override inert: fast=%d slow=%d", fast, slow)
	}
}

func TestJitterDrawsFromEnvStream(t *testing.T) {
	_, res := oneShot(t, func(n *Network) {
		n.SetLink("a", "b", LinkConfig{LatencyBase: 10, LatencyJitter: 500})
	})
	if res.Outcome != vm.OutcomeOK {
		t.Fatalf("outcome %v", res.Outcome)
	}
	// The jitter must appear as an env-tainted input event on the link's
	// latency stream.
	found := false
	for _, e := range res.Trace.Events {
		if e.Kind == trace.EvInput && e.Taint&trace.TaintEnv != 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("no env-tainted latency input consumed")
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddNode did not panic")
		}
	}()
	m := vm.New(vm.Config{})
	n := New(m, Options{})
	n.AddNode("x")
	n.AddNode("x")
}

func TestUnknownNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNode on unknown node did not panic")
		}
	}()
	m := vm.New(vm.Config{})
	n := New(m, Options{})
	n.MustNode("ghost")
}

// mustPanic runs f and fails unless it panics with the message want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if got := recover(); got != want {
			t.Fatalf("panic %v, want %q", got, want)
		}
	}()
	f()
}

// TestMeshNeedsBuild: the links exist once Build has laid them out, so a
// node added after Build, and a link configured or used before it, is a
// panic that says so — never a link found at another pair's index.
func TestMeshNeedsBuild(t *testing.T) {
	setup := func(build bool) (*vm.Machine, *Network) {
		m := vm.New(vm.Config{})
		n := New(m, Options{})
		n.AddNode("a")
		n.AddNode("b")
		if build {
			n.Build()
		}
		return m, n
	}
	t.Run("AddNode after Build", func(t *testing.T) {
		_, n := setup(true)
		mustPanic(t, "simnet: AddNode(c) after Build", func() { n.AddNode("c") })
	})
	t.Run("SetLink before Build", func(t *testing.T) {
		_, n := setup(false)
		mustPanic(t, "simnet: SetLink(a, b) before Build", func() { n.SetLink("a", "b", LinkConfig{}) })
	})
	t.Run("SetLink to itself", func(t *testing.T) {
		_, n := setup(true)
		mustPanic(t, "simnet: SetLink(a, a): no link from a node to itself", func() { n.SetLink("a", "a", LinkConfig{}) })
	})
	t.Run("Send before Build", func(t *testing.T) {
		m, n := setup(false)
		s := m.Site("test")
		var got any
		m.Run(func(t *vm.Thread) {
			defer func() { got = recover() }()
			n.Send(t, s, "a", "b", Message{Kind: "x"})
		})
		if want := "simnet: Send(a, b) before Build"; got != want {
			t.Fatalf("panic %v, want %q", got, want)
		}
	})
}

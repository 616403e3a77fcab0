package vm

import (
	"fmt"
	"testing"

	"debugdet/internal/trace"
)

// fastpathProgram exercises every inline-relevant op shape: lock convoys,
// channel ping-pong with try-variants and timeouts, sleeps, inputs,
// outputs, observes, spawns mid-run and daemons.
func fastpathProgram(disableInline bool, sched Scheduler, seed int64) *Result {
	m := New(Config{
		Seed:          seed,
		Scheduler:     sched,
		Inputs:        SeededInputs(seed, 100),
		CollectTrace:  true,
		disableInline: disableInline,
	})
	mu := m.NewMutex("mu")
	c := m.NewCell("c", trace.Int(0))
	ping := m.NewChan("ping", 2)
	pong := m.NewChan("pong", 1)
	in := m.Stream("in")
	out := m.Stream("out")
	s := m.Site("s")
	sp := m.Site("spawn")

	worker := func(t *Thread) {
		for i := 0; i < 6; i++ {
			t.Lock(s, mu)
			v := t.Load(s, c)
			t.Store(s, c, trace.Int(v.AsInt()+1))
			t.Unlock(s, mu)
			t.Send(s, ping, trace.Int(int64(i)))
			if v, ok := t.RecvTimeout(s, pong, 40); ok {
				t.Output(s, out, v)
			}
			t.TrySend(s, ping, trace.Int(99))
			t.Yield(s)
		}
	}
	return m.Run(func(t *Thread) {
		t.Spawn(sp, "a", worker)
		t.Spawn(sp, "b", worker)
		t.SpawnDaemon(sp, "pump", func(t *Thread) {
			for {
				v := t.Recv(s, ping)
				t.TrySend(s, pong, v)
			}
		})
		for i := 0; i < 8; i++ {
			x := t.Input(s, in)
			t.Observe(s, 0, x)
			t.Sleep(s, 5)
			if _, ok := t.TryRecv(s, ping); ok {
				t.Output(s, out, trace.Int(int64(i)))
			}
		}
	})
}

// TestInlineFastPathEquivalence pins the fast path's contract: with the
// inline run-to-next-schedule-point optimisation on or off, an execution
// is bit-identical — same events, same clock, same outcome, same I/O —
// under every scheduler family.
func TestInlineFastPathEquivalence(t *testing.T) {
	scheds := map[string]func(seed int64) Scheduler{
		"random":     func(seed int64) Scheduler { return NewRandomScheduler(seed) },
		"pct":        func(seed int64) Scheduler { return NewPCTScheduler(seed, 1024, 3) },
		"roundrobin": func(seed int64) Scheduler { return NewRoundRobinScheduler() },
	}
	for name, mk := range scheds {
		for seed := int64(0); seed < 12; seed++ {
			slow := fastpathProgram(true, mk(seed), seed)
			fast := fastpathProgram(false, mk(seed), seed)
			if slow.Outcome != fast.Outcome {
				t.Fatalf("%s/seed=%d: outcome %v (baton) vs %v (inline)", name, seed, slow.Outcome, fast.Outcome)
			}
			if slow.Steps != fast.Steps || slow.Cycles != fast.Cycles {
				t.Fatalf("%s/seed=%d: steps/cycles %d/%d vs %d/%d",
					name, seed, slow.Steps, slow.Cycles, fast.Steps, fast.Cycles)
			}
			if !trace.EventsEqual(slow.Trace, fast.Trace, false) {
				t.Fatalf("%s/seed=%d: traces differ between baton and inline paths", name, seed)
			}
			if fmt.Sprint(slow.Outputs) != fmt.Sprint(fast.Outputs) ||
				fmt.Sprint(slow.InputsUsed) != fmt.Sprint(fast.InputsUsed) {
				t.Fatalf("%s/seed=%d: I/O differs between baton and inline paths", name, seed)
			}
		}
	}
}

// TestInlineFastPathTerminalOps pins the handback protocol for ops that
// stop the machine from inside an inline apply (non-owner unlock crash)
// and for terminal ops excluded from inlining (fail, deadlock, aborted).
func TestInlineFastPathTerminalOps(t *testing.T) {
	build := func(disable bool, body func(m *Machine) func(*Thread)) *Result {
		m := New(Config{Seed: 1, CollectTrace: true, disableInline: disable, MaxSteps: 64})
		return m.Run(body(m))
	}
	cases := map[string]struct {
		body func(m *Machine) func(*Thread)
		want Outcome
	}{
		"fail": {func(m *Machine) func(*Thread) {
			s := m.Site("s")
			return func(t *Thread) { t.Yield(s); t.Fail(s, "boom") }
		}, OutcomeFailed},
		"crash-inline-unlock": {func(m *Machine) func(*Thread) {
			s := m.Site("s")
			mu := m.NewMutex("mu")
			return func(t *Thread) { t.Yield(s); t.Unlock(s, mu) }
		}, OutcomeCrashed},
		"deadlock": {func(m *Machine) func(*Thread) {
			s := m.Site("s")
			ch := m.NewChan("ch", 1)
			return func(t *Thread) { t.Yield(s); t.Recv(s, ch) }
		}, OutcomeDeadlock},
		"aborted": {func(m *Machine) func(*Thread) {
			s := m.Site("s")
			c := m.NewCell("c", trace.Int(0))
			return func(t *Thread) {
				for {
					t.Store(s, c, trace.Int(1))
				}
			}
		}, OutcomeAborted},
	}
	for name, tc := range cases {
		slow := build(true, tc.body)
		fast := build(false, tc.body)
		if slow.Outcome != tc.want || fast.Outcome != tc.want {
			t.Fatalf("%s: outcome %v (baton) / %v (inline), want %v", name, slow.Outcome, fast.Outcome, tc.want)
		}
		if !trace.EventsEqual(slow.Trace, fast.Trace, false) {
			t.Fatalf("%s: traces differ between baton and inline paths", name)
		}
	}
}

// TestPCTPrioritiesDistinct pins the collision-free priority scheme: every
// arrived thread holds a distinct rank, so the "highest-priority enabled
// thread" is always unique and the schedule never depends on tie-breaking.
func TestPCTPrioritiesDistinct(t *testing.T) {
	s := NewPCTScheduler(7, 1024, 3)
	m := New(Config{})
	var threads []*Thread
	// Enough arrivals that the rank space (1e6) sees birthday collisions
	// with high probability, exercising the redraw loop.
	for i := 0; i < 1500; i++ {
		threads = append(threads, m.newThread(fmt.Sprintf("t%d", i), nil))
	}
	s.Pick(m, threads)
	seen := make(map[int]bool, len(threads))
	for _, th := range threads {
		p := s.prio[th.id]
		if p == prioUnset {
			t.Fatalf("thread %d has no priority after arrival", th.id)
		}
		if seen[p] {
			t.Fatalf("priority %d assigned twice", p)
		}
		seen[p] = true
	}
}

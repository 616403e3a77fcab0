package vm

import (
	"testing"

	"debugdet/internal/trace"
)

// buildRacy constructs a small multi-threaded program with contention so
// schedulers face non-singleton enabled sets.
func buildRacy(m *Machine) func(*Thread) {
	site := m.Site("racy")
	mu := m.NewMutex("mu")
	cell := m.NewCell("counter", trace.Int(0))
	body := func(t *Thread) {
		for i := 0; i < 6; i++ {
			t.Lock(site, mu)
			v := t.Load(site, cell)
			t.Store(site, cell, trace.Int(v.Int+1))
			t.Unlock(site, mu)
		}
	}
	return func(t *Thread) {
		t.Spawn(site, "a", body)
		t.Spawn(site, "b", body)
		t.Spawn(site, "c", body)
		body(t)
	}
}

// TestLogRoundsMatchesTrace pins the round log's shape: one round per
// applied event, in order, with the pick equal to the event's thread and
// the enabled set sorted and containing the pick — on both the inline
// fast path and the baton path.
func TestLogRoundsMatchesTrace(t *testing.T) {
	for _, disableInline := range []bool{false, true} {
		m := New(Config{Seed: 3, CollectTrace: true, LogRounds: true, disableInline: disableInline})
		main := buildRacy(m)
		res := m.Run(main)
		if res.Outcome != OutcomeOK {
			t.Fatalf("outcome = %v", res.Outcome)
		}
		rounds := m.Rounds()
		if uint64(len(rounds)) != res.Steps {
			t.Fatalf("disableInline=%v: %d rounds for %d events", disableInline, len(rounds), res.Steps)
		}
		for i, r := range rounds {
			ev := res.Trace.Events[i]
			if r.Seq != ev.Seq || r.Pick != ev.TID {
				t.Fatalf("disableInline=%v: round %d = (seq %d, pick %d), event (seq %d, tid %d)",
					disableInline, i, r.Seq, r.Pick, ev.Seq, ev.TID)
			}
			found := false
			for j, id := range r.Enabled {
				if j > 0 && r.Enabled[j-1] >= id {
					t.Fatalf("round %d enabled set not ascending: %v", i, r.Enabled)
				}
				if id == r.Pick {
					found = true
				}
			}
			if !found {
				t.Fatalf("round %d pick %d not in enabled set %v", i, r.Pick, r.Enabled)
			}
		}
	}
}

// TestLogRoundsNoPerturbation pins that keeping the round log changes
// nothing observable: trace, clock and step count are bit-identical with
// and without it.
func TestLogRoundsNoPerturbation(t *testing.T) {
	run := func(logRounds bool) *Result {
		m := New(Config{Seed: 5, CollectTrace: true, LogRounds: logRounds})
		return m.Run(buildRacy(m))
	}
	a, b := run(false), run(true)
	if a.Steps != b.Steps || a.Cycles != b.Cycles {
		t.Fatalf("round log perturbed the run: steps %d vs %d, cycles %d vs %d",
			a.Steps, b.Steps, a.Cycles, b.Cycles)
	}
	if !trace.EventsEqual(a.Trace, b.Trace, false) {
		t.Fatal("round log perturbed the event stream")
	}
}

// TestSchedSimReproducesPicks pins the dry-run contract: replaying a
// recorded execution's rounds through a fresh scheduler of the same
// construction via SchedSim reproduces every pick — for the random, PCT,
// round-robin and replay schedulers.
func TestSchedSimReproducesPicks(t *testing.T) {
	schedulers := map[string]func() Scheduler{
		"random":     func() Scheduler { return NewRandomScheduler(11) },
		"pct":        func() Scheduler { return NewPCTScheduler(11, 4096, 3) },
		"roundrobin": func() Scheduler { return NewRoundRobinScheduler() },
	}
	for name, mk := range schedulers {
		m := New(Config{Scheduler: mk(), CollectTrace: true, LogRounds: true})
		res := m.Run(buildRacy(m))
		if res.Outcome != OutcomeOK {
			t.Fatalf("%s: outcome = %v", name, res.Outcome)
		}
		rounds := m.Rounds()
		sim := NewSchedSim()
		fresh := mk()
		for i, r := range rounds {
			pick, ok := sim.Pick(fresh, r.Seq, r.Enabled)
			if !ok || pick != r.Pick {
				t.Fatalf("%s: dry pick %d = (%d, %v), recorded %d", name, i, pick, ok, r.Pick)
			}
		}

		// A replay scheduler over the recorded schedule also dry-runs.
		sched := make([]trace.ThreadID, len(rounds))
		for i, r := range rounds {
			sched[i] = r.Pick
		}
		rs := NewReplayScheduler(sched)
		for i, r := range rounds {
			pick, ok := sim.Pick(rs, r.Seq, r.Enabled)
			if !ok || pick != r.Pick {
				t.Fatalf("replay: dry pick %d = (%d, %v), recorded %d", i, pick, ok, r.Pick)
			}
		}
	}
}

// TestSchedSimDivergenceSignal pins that a replay scheduler off its log
// reports failure through SchedSim instead of panicking: the forked
// search treats that as a divergence point.
func TestSchedSimDivergenceSignal(t *testing.T) {
	sim := NewSchedSim()
	rs := NewReplayScheduler([]trace.ThreadID{2})
	if pick, ok := sim.Pick(rs, 0, []trace.ThreadID{0, 1}); ok {
		t.Fatalf("dry pick off-log = %d, want divergence", pick)
	}
	// Log exhausted with a singleton continuation still picks.
	rs2 := NewReplayScheduler(nil)
	if pick, ok := sim.Pick(rs2, 0, []trace.ThreadID{3}); !ok || pick != 3 {
		t.Fatalf("singleton continuation = (%d, %v), want (3, true)", pick, ok)
	}
}

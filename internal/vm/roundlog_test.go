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

// TestLogRoundsMatchesTrace pins what a scheduler is asked, as RoundLog
// sees it: one round per applied event, in order, at the event's sequence
// number, with the pick equal to the event's thread and the enabled set
// sorted and containing the pick — on both the inline fast path and the
// baton path.
func TestLogRoundsMatchesTrace(t *testing.T) {
	for _, disableInline := range []bool{false, true} {
		log := &RoundLog{Scheduler: NewRandomScheduler(3)}
		m := New(Config{Seed: 3, Scheduler: log, CollectTrace: true, disableInline: disableInline})
		main := buildRacy(m)
		res := m.Run(main)
		if res.Outcome != OutcomeOK {
			t.Fatalf("outcome = %v", res.Outcome)
		}
		rounds := log.Rounds
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

// TestLogRoundsNoPerturbation pins that logging the rounds changes nothing
// observable: trace, clock and step count are bit-identical with and
// without RoundLog around the machine's default scheduler.
func TestLogRoundsNoPerturbation(t *testing.T) {
	run := func(sched Scheduler) *Result {
		m := New(Config{Seed: 5, Scheduler: sched, CollectTrace: true})
		return m.Run(buildRacy(m))
	}
	a, b := run(nil), run(&RoundLog{Scheduler: NewRandomScheduler(5)})
	if a.Steps != b.Steps || a.Cycles != b.Cycles {
		t.Fatalf("round log perturbed the run: steps %d vs %d, cycles %d vs %d",
			a.Steps, b.Steps, a.Cycles, b.Cycles)
	}
	if !trace.EventsEqual(a.Trace, b.Trace, false) {
		t.Fatal("round log perturbed the event stream")
	}
}

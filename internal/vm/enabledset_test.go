package vm

import (
	"reflect"
	"testing"

	"debugdet/internal/trace"
)

// Directed cases for the maintained enabled set (enabledset.go). Each forces
// one schedule under strict time with the round log on and states, round by
// round, which threads the scheduler must have been offered. The full-scan
// comparison of export_test.go runs underneath on every round as well.

type ids = []trace.ThreadID

// forceSchedule runs the program built by build under exactly the given
// schedule and returns the machine, its result and the enabled set of every
// round. Past the schedule's end a ReplayScheduler continues only while one
// thread is enabled, which is how the cases run their tails out.
func forceSchedule(t *testing.T, schedule ids, build func(m *Machine) func(*Thread)) (*Machine, *Result, []ids) {
	t.Helper()
	log := &RoundLog{Scheduler: NewReplayScheduler(schedule)}
	m := New(Config{Scheduler: log, CollectTrace: true})
	res := m.Run(build(m))
	var offered []ids
	for _, r := range log.Rounds {
		offered = append(offered, r.Enabled)
	}
	noMismatch(t)
	return m, res, offered
}

// noMismatch fails the test if any round so far differed from the full scan.
func noMismatch(t testing.TB) {
	t.Helper()
	if s := EnabledSetMismatch(); s != "" {
		t.Fatal(s)
	}
}

func wantOffered(t *testing.T, got, want []ids) {
	t.Helper()
	for i := range want {
		if i >= len(got) || !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("round %d: scheduler was offered %v, want %v\nall rounds: %v", i, at(got, i), want[i], got)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d rounds, want %d: %v", len(got), len(want), got)
	}
}

func at(rounds []ids, i int) any {
	if i < len(rounds) {
		return rounds[i]
	}
	return "no such round"
}

// Three threads contend for one mutex: an acquire disables the other two, a
// release re-enables both, and the holder stays enabled throughout.
func TestEnabledSetMutexContention(t *testing.T) {
	_, res, got := forceSchedule(t, ids{0, 0, 0, 0, 2, 2, 2, 2, 3, 3, 3, 3}, func(m *Machine) func(*Thread) {
		mu, s := m.NewMutex("mu"), m.Site("s")
		w := func(t *Thread) {
			t.Lock(s, mu)
			t.Yield(s)
			t.Unlock(s, mu)
		}
		return func(t *Thread) {
			t.Spawn(s, "a", w)
			t.Spawn(s, "b", w)
			t.Spawn(s, "c", w)
		}
	})
	wantOffered(t, got, []ids{
		{0}, {0, 1}, {0, 1, 2}, {0, 1, 2, 3}, // main spawns three and exits
		{1, 2, 3}, // all three want the free mutex
		{2}, {2},  // b holds it: a and c are disabled
		{1, 2, 3},        // b released: both waiters are back, b is at its exit
		{1, 3},           //
		{3}, {3}, {1, 3}, // c's turn, the same way
		{1}, {1}, {1}, {1}, // a runs out the tail alone
	})
	if res.Outcome != OutcomeOK {
		t.Fatalf("outcome %v", res.Outcome)
	}
}

// A RecvTimeout is enabled by a message; a second receiver takes the message
// first, so the RecvTimeout goes back to waiting (level-triggered) and is
// enabled again only by its deadline, with a timeout result.
func TestEnabledSetRecvTimeoutLosesMessageThenTimesOut(t *testing.T) {
	var got1 trace.Value
	ok1 := true
	m, res, got := forceSchedule(t, ids{0, 0, 0, 2, 0, 2}, func(m *Machine) func(*Thread) {
		ch, s := m.NewChan("ch", 1), m.Site("s")
		return func(t *Thread) {
			t.Spawn(s, "timed", func(t *Thread) { got1, ok1 = t.RecvTimeout(s, ch, 5000) })
			t.Spawn(s, "plain", func(t *Thread) { t.Recv(s, ch) })
			t.Send(s, ch, trace.Int(7))
		}
	})
	wantOffered(t, got, []ids{
		{0}, {0}, // the receivers park on an empty channel
		{0},       // main sends
		{0, 1, 2}, // the message enables both receivers
		{0, 2},    // plain took it: timed waits again
		{2},       // main exited
		{1},       // nobody enabled: the clock jumped to timed's deadline
		{1},       // timed exits
	})
	if ok1 || got1.Kind != trace.VNil || res.Outcome != OutcomeOK {
		t.Fatalf("RecvTimeout returned (%v, %v), outcome %v: want a timeout", got1, ok1, res.Outcome)
	}
	if m.Clock() < 5000 {
		t.Fatalf("clock %d: the deadline at 5000+ was never reached", m.Clock())
	}
}

// Two senders wait on a full capacity-1 channel: a receive enables both, the
// send of one disables the other again.
func TestEnabledSetTwoSendersOnFullChannel(t *testing.T) {
	_, res, got := forceSchedule(t, ids{0, 0, 0, 0, 2, 0, 1, 2, 1, 0}, func(m *Machine) func(*Thread) {
		ch, s := m.NewChan("ch", 1), m.Site("s")
		send := func(t *Thread) { t.Send(s, ch, trace.Int(int64(t.ID()))) }
		return func(t *Thread) {
			t.Spawn(s, "s1", send)
			t.Spawn(s, "s2", send)
			t.Send(s, ch, trace.Int(0))
			for i := 0; i < 3; i++ {
				t.Recv(s, ch)
			}
		}
	})
	wantOffered(t, got, []ids{
		{0}, {0, 1}, // both senders are enabled while the channel is empty
		{0, 1, 2}, // main fills it
		{0},       // full: only main's receive can go
		{1, 2},    // drained: both senders, and main's next receive cannot
		{0, 2},    // s2 filled it: s1 is disabled again, s2 is at its exit
		{1, 2},    // main drained it
		{0, 1, 2}, // s1 filled it: main can receive, both senders are at their exits
		{0, 1},    // s2 exited
		{0},       // s1 exited
		{0},       // main's last receive, then exit
	})
	if res.Outcome != OutcomeOK {
		t.Fatalf("outcome %v", res.Outcome)
	}
}

// A thread exits holding a mutex: exiting releases nothing, so the waiter is
// never offered again and the run ends in a deadlock.
func TestEnabledSetExitHoldingMutex(t *testing.T) {
	_, res, got := forceSchedule(t, ids{0, 0, 0, 1, 1}, func(m *Machine) func(*Thread) {
		mu, s := m.NewMutex("mu"), m.Site("s")
		return func(t *Thread) {
			t.Spawn(s, "holder", func(t *Thread) { t.Lock(s, mu) })
			t.Spawn(s, "waiter", func(t *Thread) { t.Lock(s, mu) })
		}
	})
	wantOffered(t, got, []ids{{0}, {0, 1}, {0, 1, 2}, {1, 2}, {1}})
	if res.Outcome != OutcomeDeadlock {
		t.Fatalf("outcome %v, want a deadlock", res.Outcome)
	}
}

// Threads parked on one deadline wake together and are offered in ID order,
// whatever order they went to sleep in.
func TestEnabledSetEqualDeadlinesWakeInIDOrder(t *testing.T) {
	const wake = 9000
	m, res, got := forceSchedule(t, ids{0, 0, 0, 0, 3, 1, 2, 2, 2, 3, 3}, func(m *Machine) func(*Thread) {
		s := m.Site("s")
		w := func(t *Thread) {
			t.Yield(s)
			t.Sleep(s, wake-t.Now())
		}
		return func(t *Thread) {
			t.Spawn(s, "a", w)
			t.Spawn(s, "b", w)
			t.Spawn(s, "c", w)
		}
	})
	wantOffered(t, got, []ids{
		{0}, {0, 1}, {0, 1, 2}, {0, 1, 2, 3},
		{1, 2, 3}, {1, 2}, {2}, // they go to sleep as c, a, b
		{1, 2, 3},      // one clock jump wakes all three
		{1, 2, 3},      // b slept and is at its exit
		{1, 3}, {1, 3}, //
		{1}, {1},
	})
	if res.Outcome != OutcomeOK || m.Clock() < wake {
		t.Fatalf("outcome %v at clock %d", res.Outcome, m.Clock())
	}
}

// A spawned child is offered in the very next round, and a child whose first
// op cannot proceed is not.
func TestEnabledSetSpawnedChild(t *testing.T) {
	_, res, got := forceSchedule(t, ids{0, 0, 1, 0, 2, 2, 1}, func(m *Machine) func(*Thread) {
		ch, s := m.NewChan("ch", 1), m.Site("s")
		return func(t *Thread) {
			t.Spawn(s, "ready", func(t *Thread) { t.Yield(s) })
			t.Spawn(s, "blocked", func(t *Thread) { t.Recv(s, ch) })
			t.Send(s, ch, trace.Int(1))
		}
	})
	wantOffered(t, got, []ids{
		{0}, {0, 1}, // ready's first op can go at once
		{0, 1}, {0, 1}, // blocked's cannot
		{0, 1, 2}, {0, 1, 2}, // until main has sent
		{0, 1}, {0},
	})
	if res.Outcome != OutcomeOK {
		t.Fatalf("outcome %v", res.Outcome)
	}
}

// AdoptCounters replaces the clock. Under strict time a later clock passes
// deadlines, so every thread parked on one must be re-evaluated.
func TestEnabledSetAdoptCountersStrictTime(t *testing.T) {
	m := New(Config{Seed: 5, CollectTrace: true})
	m.Start(sleepyMain(m))
	m.Continue(20)
	snap := m.Snapshot(NoRunningThread)
	before := m.ScanEnabledIDs()
	snap.Clock += 100000
	if err := m.AdoptCounters(snap); err != nil {
		t.Fatal(err)
	}
	if after := m.ScanEnabledIDs(); len(after) <= len(before) {
		t.Fatalf("enabled %v before the clock jumped, %v after: no sleeper to wake at this pause point", before, after)
	}
	m.Continue(0)
	if res := m.Finish(); res.Outcome != OutcomeOK {
		t.Fatalf("outcome %v", res.Outcome)
	}
	noMismatch(t)
}

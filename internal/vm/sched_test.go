package vm

import (
	"testing"

	"debugdet/internal/trace"
)

// schedProgram builds a 3-thread program whose trace reveals scheduling
// decisions.
func schedProgram(sched Scheduler, seed int64) *Result {
	m := New(Config{Seed: seed, Scheduler: sched, CollectTrace: true})
	c := m.NewCell("c", trace.Int(0))
	s := m.Site("s")
	sp := m.Site("spawn")
	w := func(t *Thread) {
		for i := 0; i < 10; i++ {
			t.Store(s, c, trace.Int(int64(i)))
		}
	}
	return m.Run(func(t *Thread) {
		t.Spawn(sp, "a", w)
		t.Spawn(sp, "b", w)
		t.Spawn(sp, "c", w)
	})
}

func TestRoundRobinIsFairAndDeterministic(t *testing.T) {
	r1 := schedProgram(NewRoundRobinScheduler(), 0)
	r2 := schedProgram(NewRoundRobinScheduler(), 0)
	if !trace.EventsEqual(r1.Trace, r2.Trace, false) {
		t.Fatal("round-robin runs differ")
	}
	// Every thread gets service: no starvation.
	counts := make(map[trace.ThreadID]int)
	for _, e := range r1.Trace.Events {
		counts[e.TID]++
	}
	for tid := trace.ThreadID(1); tid <= 3; tid++ {
		if counts[tid] == 0 {
			t.Fatalf("thread %d starved under round-robin", tid)
		}
	}
}

func TestPCTSchedulerDeterministicPerSeed(t *testing.T) {
	a := schedProgram(NewPCTScheduler(5, 256, 3), 5)
	b := schedProgram(NewPCTScheduler(5, 256, 3), 5)
	if !trace.EventsEqual(a.Trace, b.Trace, false) {
		t.Fatal("same-seed PCT runs differ")
	}
	c := schedProgram(NewPCTScheduler(6, 256, 3), 6)
	if trace.EventsEqual(a.Trace, c.Trace, true) {
		t.Fatal("different-seed PCT runs identical")
	}
}

func TestReplaySchedulerStrictDivergence(t *testing.T) {
	orig := schedProgram(NewRandomScheduler(3), 3)
	sched := orig.Trace.Schedule()
	// Corrupt one decision mid-stream to demand a thread that cannot run.
	sched[len(sched)/2] = 77
	res := schedProgram(NewReplayScheduler(sched), 3)
	if res.Outcome != OutcomeDiverged {
		t.Fatalf("outcome = %v, want diverged", res.Outcome)
	}
	if res.DivergedAt == 0 {
		t.Fatal("divergence position not reported")
	}
}

func TestReplaySchedulerExhaustionWithUniqueContinuation(t *testing.T) {
	// A single-threaded program replayed from a truncated schedule can
	// still finish: the continuation is unique.
	m := New(Config{Seed: 0, CollectTrace: true})
	c := m.NewCell("c", trace.Int(0))
	s := m.Site("s")
	orig := m.Run(func(t *Thread) {
		for i := 0; i < 10; i++ {
			t.Store(s, c, trace.Int(int64(i)))
		}
	})
	sched := orig.Trace.Schedule()[:3]

	m2 := New(Config{Seed: 0, Scheduler: NewReplayScheduler(sched), CollectTrace: true})
	c2 := m2.NewCell("c", trace.Int(0))
	s2 := m2.Site("s")
	res := m2.Run(func(t *Thread) {
		for i := 0; i < 10; i++ {
			t.Store(s2, c2, trace.Int(int64(i)))
		}
	})
	if res.Outcome != OutcomeOK {
		t.Fatalf("outcome = %v, want ok past the horizon", res.Outcome)
	}
}

func TestDaemonsDoNotCountForDeadlock(t *testing.T) {
	// A daemon blocked forever must not trip deadlock detection once the
	// program proper is done.
	m := New(Config{Seed: 0, CollectTrace: true})
	ch := m.NewChan("ch", 1)
	s := m.Site("s")
	sp := m.Site("spawn")
	res := m.Run(func(t *Thread) {
		t.SpawnDaemon(sp, "d", func(t *Thread) {
			t.Recv(s, ch) // blocks forever
		})
		t.Yield(s)
	})
	if res.Outcome != OutcomeOK {
		t.Fatalf("outcome = %v, want ok (daemon parked)", res.Outcome)
	}
}

func TestDaemonBlockingMainStillDeadlocks(t *testing.T) {
	// The converse: a non-daemon blocked forever IS a deadlock even when
	// daemons exist.
	m := New(Config{Seed: 0, CollectTrace: true})
	ch := m.NewChan("ch", 1)
	s := m.Site("s")
	sp := m.Site("spawn")
	res := m.Run(func(t *Thread) {
		t.SpawnDaemon(sp, "d", func(t *Thread) {
			t.Recv(s, ch)
		})
		t.Recv(s, ch) // main blocks forever too
	})
	if res.Outcome != OutcomeDeadlock {
		t.Fatalf("outcome = %v, want deadlock", res.Outcome)
	}
}

func TestRelaxTimeMakesSleepSchedulable(t *testing.T) {
	// Under RelaxTime a sleeping thread can be picked immediately; the
	// run completes without the clock having to jump.
	m := New(Config{Seed: 0, RelaxTime: true, CollectTrace: true})
	s := m.Site("s")
	res := m.Run(func(t *Thread) {
		t.Sleep(s, 1<<40) // absurd deadline; must not stall
	})
	if res.Outcome != OutcomeOK {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if res.Cycles >= 1<<40 {
		t.Fatal("relaxed sleep still advanced the clock to the deadline")
	}
}

func TestRelaxTimeRecvTimeoutUsesChannelState(t *testing.T) {
	m := New(Config{Seed: 0, RelaxTime: true, CollectTrace: true})
	ch := m.NewChan("ch", 1)
	s := m.Site("s")
	var got trace.Value
	var ok bool
	res := m.Run(func(t *Thread) {
		t.Send(s, ch, trace.Int(7))
		got, ok = t.RecvTimeout(s, ch, 1)
	})
	if res.Outcome != OutcomeOK || !ok || got.AsInt() != 7 {
		t.Fatalf("relaxed RecvTimeout lost the message: ok=%v got=%v", ok, got)
	}
}

func TestMachineAccessors(t *testing.T) {
	m := New(Config{Seed: 42, CollectTrace: true})
	c := m.NewCell("cell", trace.Int(3))
	mu := m.NewMutex("mu")
	ch := m.NewChan("ch", 2)
	st := m.Stream("str")
	if m.Seed() != 42 {
		t.Fatal("Seed accessor broken")
	}
	if m.CellName(c) != "cell" || m.MutexName(mu) != "mu" || m.ChanName(ch) != "ch" || m.StreamName(st) != "str" {
		t.Fatal("name accessors broken")
	}
	if id, ok := m.CellID("cell"); !ok || id != c {
		t.Fatal("CellID broken")
	}
	if m.CellByName("cell").AsInt() != 3 {
		t.Fatal("CellByName broken")
	}
	if m.CellByName("nope").Kind != trace.VNil {
		t.Fatal("unknown cell must be nil")
	}
	if m.ChanLen(ch) != 0 {
		t.Fatal("ChanLen broken")
	}
	if _, ok := m.StreamID("str"); !ok {
		t.Fatal("StreamID broken")
	}
	names := m.StreamNames()
	if len(names) != 1 || names[0] != "str" {
		t.Fatalf("StreamNames = %v", names)
	}
}

func TestOutcomeStrings(t *testing.T) {
	want := map[Outcome]string{
		OutcomeOK: "ok", OutcomeFailed: "failed", OutcomeCrashed: "crashed",
		OutcomeDeadlock: "deadlock", OutcomeDiverged: "diverged", OutcomeAborted: "aborted",
	}
	for o, s := range want {
		if o.String() != s {
			t.Fatalf("Outcome(%d).String() = %q, want %q", o, o.String(), s)
		}
	}
}

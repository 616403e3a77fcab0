package vm

import (
	"reflect"
	"testing"

	"debugdet/internal/trace"
)

// A replay takes the scheduling round everybody takes: the enabled set is
// brought up to date and the ReplayScheduler looks its thread up in it.
// (Until the set was maintained incrementally a replay had a round of its
// own, Machine.forcedPick, which checked the named thread alone; these cases
// were written to hold it to the generic round and stay as that round's
// tests.) Each runs one configuration with the round log on and off — the
// log is pure observation — and requires the runs to agree event for event,
// Time included, and on every Result field, where following a schedule is
// hardest: a schedule the program cannot follow and time gates that make
// the named thread wait for the clock.

// sleepyProgram has a main thread that sleeps across a gap while workers
// contend for a lock, so a strict-time replay must advance the clock before
// the schedule's next thread becomes enabled.
func sleepyProgram(cfg Config) (*Machine, *Result) {
	cfg.CollectTrace = true
	m := New(cfg)
	return m, runSleepy(m)
}

func runSleepy(m *Machine) *Result { return m.Run(sleepyMain(m)) }

// sleepyMain builds sleepyProgram's objects on m and returns its main
// thread.
func sleepyMain(m *Machine) func(*Thread) {
	c := m.NewCell("c", trace.Int(0))
	mu := m.NewMutex("mu")
	ch := m.NewChan("ch", 2)
	s := m.Site("s")
	sp := m.Site("spawn")
	w := func(t *Thread) {
		for i := 0; i < 6; i++ {
			t.Lock(s, mu)
			t.Store(s, c, trace.Int(int64(i)))
			t.Unlock(s, mu)
			t.Sleep(s, 400)
		}
		t.Send(s, ch, trace.Int(1))
	}
	return func(t *Thread) {
		t.Spawn(sp, "a", w)
		t.Spawn(sp, "b", w)
		t.Sleep(s, 5000)
		t.Recv(s, ch)
		t.RecvTimeout(s, ch, 100000)
	}
}

// bothRounds runs the program under the configuration twice — round log off,
// then on (RoundLog around the scheduler) — with a scheduler from mk each time, and fails unless the runs
// are indistinguishable. It returns the unlogged run.
func bothRounds(t *testing.T, cfg Config, mk func() *ReplayScheduler) (*ReplayScheduler, *Result) {
	t.Helper()
	fastS, slowS := mk(), mk()
	cfg.Scheduler = fastS
	_, fast := sleepyProgram(cfg)
	log := &RoundLog{Scheduler: slowS}
	cfg.Scheduler = log
	_, slow := sleepyProgram(cfg)
	if len(log.Rounds) == 0 {
		t.Fatal("the logged run logged no round")
	}
	if !trace.EventsEqual(fast.Trace, slow.Trace, false) {
		t.Fatalf("traces differ: %d events unlogged, %d logged", len(fast.Trace.Events), len(slow.Trace.Events))
	}
	f, s := *fast, *slow
	f.Trace, s.Trace = nil, nil
	if !reflect.DeepEqual(f, s) {
		t.Fatalf("results differ:\nunlogged %+v\nlogged   %+v", f, s)
	}
	if fastS.Pos() != slowS.Pos() {
		t.Fatalf("scheduler state differs: unlogged pos %d, logged pos %d", fastS.Pos(), slowS.Pos())
	}
	return fastS, fast
}

func TestForcedPickFollowsASchedule(t *testing.T) {
	_, orig := sleepyProgram(Config{Seed: 11})
	sched := orig.Trace.Schedule()
	for _, relax := range []bool{true, false} {
		rs, res := bothRounds(t, Config{Seed: 11, RelaxTime: relax}, func() *ReplayScheduler { return NewReplayScheduler(sched) })
		if res.Outcome != OutcomeOK || rs.Pos() != len(sched) {
			t.Fatalf("relax=%v: outcome %v pos %d of %d", relax, res.Outcome, rs.Pos(), len(sched))
		}
		if !trace.EventsEqual(res.Trace, orig.Trace, relax) {
			t.Fatalf("relax=%v: replay differs from the original run", relax)
		}
	}
}

// Strict time: the schedule names sleepers whose deadlines lie ahead, so
// rounds must advance the clock before the named thread is enabled. The replay
// reproduces the original's times exactly.
func TestForcedPickAcrossSleepGap(t *testing.T) {
	_, orig := sleepyProgram(Config{Seed: 5})
	gaps := 0
	for i := 1; i < len(orig.Trace.Events); i++ {
		if orig.Trace.Events[i].Time-orig.Trace.Events[i-1].Time > 300 {
			gaps++
		}
	}
	if gaps == 0 {
		t.Fatal("program has no sleep gap: nothing for the clock to advance over")
	}
	sched := orig.Trace.Schedule()
	_, res := bothRounds(t, Config{Seed: 5}, func() *ReplayScheduler { return NewReplayScheduler(sched) })
	if res.Outcome != OutcomeOK || res.Cycles != orig.Cycles {
		t.Fatalf("outcome %v cycles %d, original ok %d", res.Outcome, res.Cycles, orig.Cycles)
	}
	if !trace.EventsEqual(res.Trace, orig.Trace, false) {
		t.Fatal("strict-time replay differs from the original run, times included")
	}
}

func TestForcedPickTamperedSchedule(t *testing.T) {
	_, orig := sleepyProgram(Config{Seed: 7})
	for _, bad := range []trace.ThreadID{77, -3, 0} {
		sched := orig.Trace.Schedule()
		// 77 never exists and -3 cannot; thread 0 does, so the run follows
		// the tampered decision wherever it leads.
		at := len(sched) / 2
		for sched[at] == bad {
			at++
		}
		sched[at] = bad
		_, res := bothRounds(t, Config{Seed: 7, RelaxTime: true}, func() *ReplayScheduler { return NewReplayScheduler(sched) })
		if bad != 0 && (res.Outcome != OutcomeDiverged || res.DivergedAt != uint64(at)) {
			t.Fatalf("thread %d at %d: outcome %v diverged at %d", bad, at, res.Outcome, res.DivergedAt)
		}
	}
}

// TestAdoptCounters: a relaxed-time replay paused at a recorded snapshot's
// position holds its logical state but not its clock (it skipped the sleep
// gaps) nor its recording cycles (it charges none); adopting the counters
// makes the two snapshots equal, and a machine elsewhere refuses.
func TestAdoptCounters(t *testing.T) {
	var snap *Snapshot
	const at = 40
	rec := New(Config{Seed: 5, CollectTrace: true})
	rec.Attach(ObserverFunc(func(e *trace.Event) uint64 {
		if e.Seq+1 == at {
			snap = rec.Snapshot(e.TID)
		}
		return 7 // recording cost, so the recorded run has RecordCycles
	}))
	orig := runSleepy(rec)
	if snap == nil || snap.RecordCycles == 0 {
		t.Fatalf("no snapshot with recording cycles at %d of %d events", at, len(orig.Trace.Events))
	}

	m := New(Config{Seed: 5, Scheduler: NewReplayScheduler(orig.Trace.Schedule()), RelaxTime: true, CollectTrace: true})
	m.Start(sleepyMain(m))
	m.Continue(at - 1)
	if err := m.AdoptCounters(snap); err == nil {
		t.Fatal("a machine one event short of the snapshot adopted its counters")
	}
	m.Continue(at)
	if got := m.Snapshot(NoRunningThread); got.EqualState(snap) == nil || got.RecordCycles != 0 {
		t.Fatalf("replay already matches the snapshot (clock %d vs %d, record cycles %d): nothing to adopt", got.Clock, snap.Clock, got.RecordCycles)
	}
	if err := m.AdoptCounters(snap); err != nil {
		t.Fatal(err)
	}
	got := m.Snapshot(NoRunningThread)
	if err := got.EqualState(snap); err != nil {
		t.Fatalf("after adopting: %v", err)
	}
	if got.RecordCycles != snap.RecordCycles {
		t.Fatalf("record cycles %d, snapshot has %d", got.RecordCycles, snap.RecordCycles)
	}
	m.Continue(0)
	if res := m.Finish(); res.Outcome != OutcomeOK {
		t.Fatalf("replay after adopting: outcome %v", res.Outcome)
	}
}

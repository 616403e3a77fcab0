package vm

import (
	"testing"
	"unsafe"

	"debugdet/internal/trace"
)

// runCounter builds a machine where two threads increment a shared counter
// n times each under a mutex (or racily when locked is false).
func runCounter(seed int64, n int, locked bool, sched Scheduler) (*Result, *Machine) {
	m := New(Config{Seed: seed, Scheduler: sched, CollectTrace: true})
	cnt := m.NewCell("cnt", trace.Int(0))
	mu := m.NewMutex("mu")
	sLoad := m.Site("worker.load")
	sStore := m.Site("worker.store")
	sLock := m.Site("worker.lock")
	sUnlock := m.Site("worker.unlock")
	sSpawn := m.Site("main.spawn")

	worker := func(t *Thread) {
		for i := 0; i < n; i++ {
			if locked {
				t.Lock(sLock, mu)
			}
			v := t.Load(sLoad, cnt)
			t.Store(sStore, cnt, trace.Int(v.AsInt()+1))
			if locked {
				t.Unlock(sUnlock, mu)
			}
		}
	}
	res := m.Run(func(t *Thread) {
		t.Spawn(sSpawn, "w1", worker)
		t.Spawn(sSpawn, "w2", worker)
	})
	return res, m
}

func TestCounterLockedAlwaysCorrect(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		res, m := runCounter(seed, 50, true, nil)
		if res.Outcome != OutcomeOK {
			t.Fatalf("seed %d: outcome = %v, want ok", seed, res.Outcome)
		}
		if got := m.CellValue(0).AsInt(); got != 100 {
			t.Fatalf("seed %d: counter = %d, want 100", seed, got)
		}
	}
}

func TestCounterRacyLosesUpdatesForSomeSeed(t *testing.T) {
	lost := false
	for seed := int64(0); seed < 50; seed++ {
		_, m := runCounter(seed, 20, false, nil)
		if m.CellValue(0).AsInt() < 40 {
			lost = true
			break
		}
	}
	if !lost {
		t.Fatal("no seed in [0,50) exhibited a lost update; the racy window is not schedulable")
	}
}

func TestDeterminismSameSeedSameTrace(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		r1, _ := runCounter(seed, 30, false, NewRandomScheduler(seed))
		r2, _ := runCounter(seed, 30, false, NewRandomScheduler(seed))
		if !trace.EventsEqual(r1.Trace, r2.Trace, false) {
			t.Fatalf("seed %d: two runs with identical config produced different traces", seed)
		}
		if r1.Cycles != r2.Cycles {
			t.Fatalf("seed %d: cycles differ: %d vs %d", seed, r1.Cycles, r2.Cycles)
		}
	}
}

func TestDifferentSeedsDifferentInterleavings(t *testing.T) {
	r1, _ := runCounter(1, 30, false, NewRandomScheduler(1))
	r2, _ := runCounter(2, 30, false, NewRandomScheduler(2))
	if trace.EventsEqual(r1.Trace, r2.Trace, true) {
		t.Fatal("seeds 1 and 2 produced identical traces; scheduler seed has no effect")
	}
}

func TestReplayReproducesTraceExactly(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		orig, _ := runCounter(seed, 25, false, NewRandomScheduler(seed))
		rep, _ := runCounter(seed, 25, false, NewReplayScheduler(orig.Trace.Schedule()))
		if !trace.EventsEqual(orig.Trace, rep.Trace, false) {
			t.Fatalf("seed %d: replayed trace differs from original", seed)
		}
	}
}

func TestChannelFIFOAndBlocking(t *testing.T) {
	m := New(Config{Seed: 7, CollectTrace: true})
	ch := m.NewChan("ch", 2)
	out := m.Stream("out")
	sSend := m.Site("prod.send")
	sRecv := m.Site("cons.recv")
	sOut := m.Site("cons.out")
	sSpawn := m.Site("main.spawn")

	res := m.Run(func(t *Thread) {
		t.Spawn(sSpawn, "prod", func(t *Thread) {
			for i := 0; i < 10; i++ {
				t.Send(sSend, ch, trace.Int(int64(i)))
			}
		})
		t.Spawn(sSpawn, "cons", func(t *Thread) {
			for i := 0; i < 10; i++ {
				v := t.Recv(sRecv, ch)
				t.Output(sOut, out, v)
			}
		})
	})
	if res.Outcome != OutcomeOK {
		t.Fatalf("outcome = %v, want ok (terminal: %v)", res.Outcome, res.Terminal)
	}
	got := res.Outputs["out"]
	if len(got) != 10 {
		t.Fatalf("got %d outputs, want 10", len(got))
	}
	for i, v := range got {
		if v.AsInt() != int64(i) {
			t.Fatalf("output[%d] = %d, want %d (FIFO violated)", i, v.AsInt(), i)
		}
	}
}

func TestDeadlockDetection(t *testing.T) {
	m := New(Config{Seed: 3, Scheduler: NewRoundRobinScheduler(), CollectTrace: true})
	a := m.NewMutex("a")
	b := m.NewMutex("b")
	s := m.Site("s")
	sp := m.Site("spawn")

	res := m.Run(func(t *Thread) {
		t.Spawn(sp, "t1", func(t *Thread) {
			t.Lock(s, a)
			t.Yield(s)
			t.Lock(s, b)
		})
		t.Spawn(sp, "t2", func(t *Thread) {
			t.Lock(s, b)
			t.Yield(s)
			t.Lock(s, a)
		})
	})
	if res.Outcome != OutcomeDeadlock {
		t.Fatalf("outcome = %v, want deadlock", res.Outcome)
	}
}

func TestUnlockByNonOwnerCrashes(t *testing.T) {
	m := New(Config{Seed: 0, CollectTrace: true})
	mu := m.NewMutex("mu")
	s := m.Site("s")
	res := m.Run(func(t *Thread) {
		t.Unlock(s, mu)
	})
	if res.Outcome != OutcomeCrashed {
		t.Fatalf("outcome = %v, want crashed", res.Outcome)
	}
}

func TestFailStopsMachine(t *testing.T) {
	m := New(Config{Seed: 0, CollectTrace: true})
	s := m.Site("s")
	ran := false
	res := m.Run(func(t *Thread) {
		t.Fail(s, "invariant broken: %d", 42)
		ran = true
	})
	if ran {
		t.Fatal("code after Fail executed")
	}
	if res.Outcome != OutcomeFailed {
		t.Fatalf("outcome = %v, want failed", res.Outcome)
	}
	if res.Terminal.Val.AsString() != "invariant broken: 42" {
		t.Fatalf("terminal message = %q", res.Terminal.Val.AsString())
	}
}

func TestPanicBecomesCrash(t *testing.T) {
	m := New(Config{Seed: 0, CollectTrace: true})
	sp := m.Site("spawn")
	res := m.Run(func(t *Thread) {
		t.Spawn(sp, "bad", func(t *Thread) {
			var p *int
			_ = *p // nil deref panics
		})
		t.Yield(sp)
		t.Yield(sp)
	})
	if res.Outcome != OutcomeCrashed {
		t.Fatalf("outcome = %v, want crashed", res.Outcome)
	}
}

func TestSleepAdvancesVirtualTime(t *testing.T) {
	m := New(Config{Seed: 0, CollectTrace: true})
	s := m.Site("s")
	var before, after uint64
	res := m.Run(func(t *Thread) {
		before = t.Now()
		t.Sleep(s, 10000)
		after = t.Now()
	})
	if res.Outcome != OutcomeOK {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if after < before+10000 {
		t.Fatalf("sleep advanced clock by %d, want >= 10000", after-before)
	}
}

func TestRecvTimeout(t *testing.T) {
	m := New(Config{Seed: 0, CollectTrace: true})
	ch := m.NewChan("ch", 1)
	s := m.Site("s")
	var ok bool
	res := m.Run(func(t *Thread) {
		_, ok = t.RecvTimeout(s, ch, 500)
	})
	if res.Outcome != OutcomeOK {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if ok {
		t.Fatal("RecvTimeout on empty channel reported a value")
	}
}

func TestTrySendTryRecv(t *testing.T) {
	m := New(Config{Seed: 0, CollectTrace: true})
	ch := m.NewChan("ch", 1)
	s := m.Site("s")
	res := m.Run(func(t *Thread) {
		if _, ok := t.TryRecv(s, ch); ok {
			t.Fail(s, "recv from empty succeeded")
		}
		if !t.TrySend(s, ch, trace.Int(1)) {
			t.Fail(s, "send to empty failed")
		}
		if t.TrySend(s, ch, trace.Int(2)) {
			t.Fail(s, "send to full succeeded")
		}
		if v, ok := t.TryRecv(s, ch); !ok || v.AsInt() != 1 {
			t.Fail(s, "recv got %v/%v", v, ok)
		}
	})
	if res.Outcome != OutcomeOK {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Terminal.Val.AsString())
	}
}

func TestInputsAreDeterministicAndRecordedInTrace(t *testing.T) {
	run := func() *Result {
		m := New(Config{Seed: 9, Inputs: SeededInputs(9, 100), CollectTrace: true})
		in := m.DeclareStream("req", trace.TaintData)
		s := m.Site("s")
		return m.Run(func(t *Thread) {
			for i := 0; i < 5; i++ {
				t.Input(s, in)
			}
		})
	}
	r1, r2 := run(), run()
	if len(r1.InputsUsed["req"]) != 5 {
		t.Fatalf("inputs recorded = %d, want 5", len(r1.InputsUsed["req"]))
	}
	for i := range r1.InputsUsed["req"] {
		if !r1.InputsUsed["req"][i].Equal(r2.InputsUsed["req"][i]) {
			t.Fatal("inputs differ across identical runs")
		}
	}
}

func TestTaintPropagation(t *testing.T) {
	m := New(Config{Seed: 0, CollectTrace: true})
	in := m.DeclareStream("payload", trace.TaintData)
	cell := m.NewCell("c", trace.Nil)
	s := m.Site("s")
	res := m.Run(func(t *Thread) {
		v := t.Input(s, in) // taints the thread with Data
		t.Store(s, cell, v)
		t.ClearTaint()
		t.Store(s, cell, trace.Int(1)) // untainted store
		t.Load(s, cell)                // reads untainted cell
	})
	if res.Outcome != OutcomeOK {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	stores := res.Trace.FilterKind(trace.EvStore)
	if len(stores) != 2 {
		t.Fatalf("stores = %d, want 2", len(stores))
	}
	if stores[0].Taint&trace.TaintData == 0 {
		t.Fatal("first store lost Data taint")
	}
	if stores[1].Taint != trace.TaintNone {
		t.Fatal("ClearTaint did not clear the register")
	}
}

func TestAtomicAddHasNoRaceWindow(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		m := New(Config{Seed: seed, CollectTrace: false})
		cnt := m.NewCell("cnt", trace.Int(0))
		s := m.Site("s")
		sp := m.Site("spawn")
		w := func(t *Thread) {
			for i := 0; i < 25; i++ {
				t.Add(s, cnt, 1)
			}
		}
		res := m.Run(func(t *Thread) {
			t.Spawn(sp, "a", w)
			t.Spawn(sp, "b", w)
		})
		if res.Outcome != OutcomeOK {
			t.Fatalf("seed %d: outcome %v", seed, res.Outcome)
		}
		if got := m.CellValue(cnt).AsInt(); got != 50 {
			t.Fatalf("seed %d: atomic adds lost updates: %d != 50", seed, got)
		}
	}
}

func TestMaxStepsAborts(t *testing.T) {
	m := New(Config{Seed: 0, MaxSteps: 100, CollectTrace: true})
	s := m.Site("s")
	res := m.Run(func(t *Thread) {
		for {
			t.Yield(s)
		}
	})
	if res.Outcome != OutcomeAborted {
		t.Fatalf("outcome = %v, want aborted", res.Outcome)
	}
}

func TestOverheadAccountsObserverCost(t *testing.T) {
	mkRun := func(obs Observer) *Result {
		m := New(Config{Seed: 4, CollectTrace: true})
		s := m.Site("s")
		c := m.NewCell("c", trace.Int(0))
		if obs != nil {
			m.Attach(obs)
		}
		return m.Run(func(t *Thread) {
			for i := 0; i < 100; i++ {
				t.Store(s, c, trace.Int(int64(i)))
			}
		})
	}
	base := mkRun(nil)
	rec := mkRun(ObserverFunc(func(e *trace.Event) uint64 { return 50 }))
	if base.Overhead() != 1.0 {
		t.Fatalf("baseline overhead = %v, want 1.0", base.Overhead())
	}
	if rec.Overhead() <= 1.0 {
		t.Fatalf("recorded overhead = %v, want > 1.0", rec.Overhead())
	}
	if rec.BaseCycles() != base.BaseCycles() {
		t.Fatalf("recording changed base cycles: %d vs %d", rec.BaseCycles(), base.BaseCycles())
	}
}

func TestSpawnOrderIsDeterministic(t *testing.T) {
	m := New(Config{Seed: 0, CollectTrace: true})
	sp := m.Site("spawn")
	var ids []trace.ThreadID
	res := m.Run(func(t *Thread) {
		for i := 0; i < 5; i++ {
			ids = append(ids, t.Spawn(sp, "w", func(t *Thread) {}))
		}
	})
	if res.Outcome != OutcomeOK {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	for i, id := range ids {
		if id != trace.ThreadID(i+1) {
			t.Fatalf("child %d got ID %d, want %d", i, id, i+1)
		}
	}
}

// TestThreadSizeClass: a machine allocates one Thread per virtual thread, so
// the enabled-set links were fitted into the allocation size class the
// struct already occupied (288 bytes; the next is 320).
func TestThreadSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Thread{}); n > 288 {
		t.Fatalf("Thread is %d bytes: past the 288-byte size class", n)
	}
}

// perWord returns the size a layout pin expects: w64 on a 64-bit platform
// and w32 on a 32-bit one, where words and pointers are half as wide.
func perWord(w64, w32 uintptr) uintptr {
	if unsafe.Sizeof(uintptr(0)) == 4 {
		return w32
	}
	return w64
}

// TestFeedEntryLayout pins a feed entry's size: a restore holds one per
// event its threads replay, and its value is a trace.Value (32 bytes), with
// the kind, result and taint bytes packed into the word after it.
func TestFeedEntryLayout(t *testing.T) {
	if n, want := unsafe.Sizeof(FeedEntry{}), perWord(40, 24); n != want {
		t.Fatalf("sizeof(FeedEntry) = %d, want %d", n, want)
	}
}

// TestStreamStateLayout pins a stream's size at 80 bytes (40 on 32 bits):
// a restored machine keeps the snapshot's histories in a table of its own
// (see Machine.base) rather than in two more slices per stream.
func TestStreamStateLayout(t *testing.T) {
	if n, want := unsafe.Sizeof(streamState{}), perWord(80, 40); n != want {
		t.Fatalf("sizeof(streamState) = %d, want %d", n, want)
	}
}

package vm

import (
	"runtime"
	"testing"
	"time"

	"debugdet/internal/trace"
)

// TestGoexitInBodyEndsTheDriver: a body that calls runtime.Goexit — what
// testing's FailNow does inside a scenario body — ends the goroutine driving
// the machine instead of hanging it, and the driver releases the other
// threads' coroutines on its way out.
func TestGoexitInBodyEndsTheDriver(t *testing.T) {
	for _, disableInline := range []bool{false, true} {
		before := runtime.NumGoroutine()
		ended, returned := make(chan struct{}), false
		go func() {
			defer close(ended)
			m := New(Config{Seed: 1, disableInline: disableInline})
			c := m.NewCell("c", trace.Int(0))
			s := m.Site("s")
			m.Run(func(t *Thread) {
				t.Spawn(s, "looper", func(t *Thread) {
					for {
						t.Yield(s)
					}
				})
				t.Load(s, c)
				runtime.Goexit()
			})
			returned = true
		}()
		select {
		case <-ended:
		case <-time.After(2 * time.Second):
			t.Fatalf("disableInline=%v: Run still blocked 2s after a body called runtime.Goexit", disableInline)
		}
		if returned {
			t.Fatalf("disableInline=%v: Run returned; the Goexit should have ended its goroutine", disableInline)
		}
		n := runtime.NumGoroutine()
		for i := 0; n > before && i < 200; i++ {
			time.Sleep(5 * time.Millisecond)
			n = runtime.NumGoroutine()
		}
		if n > before {
			t.Fatalf("disableInline=%v: %d goroutines before, %d after: a thread's coroutine was left behind", disableInline, before, n)
		}
	}
}

// TestGoexitDuringRestoreReleasesParkedThreads: a body that calls
// runtime.Goexit during Restore's feed replay ends the goroutine calling
// Restore, and the threads already parked at their first live operation are
// released on its way out.
func TestGoexitDuringRestoreReleasesParkedThreads(t *testing.T) {
	setup := func(goexit bool) func(*Machine) func(*Thread) {
		return func(m *Machine) func(*Thread) {
			c := m.NewCell("c", trace.Int(0))
			ch := m.NewChan("ch", 1)
			s := m.Site("s")
			return func(t *Thread) {
				t.Spawn(s, "a", func(t *Thread) { t.Recv(s, ch) })
				t.Spawn(s, "b", func(t *Thread) {
					t.Load(s, c)
					if goexit {
						runtime.Goexit()
					}
					t.Recv(s, ch)
				})
			}
		}
	}
	// The live run: main spawns a and b and exits, a parks in Recv, b loads
	// and parks in Recv. Nothing else is enabled, so the fourth event ends
	// the prefix whatever the schedule.
	cfg := Config{Seed: 1, CollectTrace: true}
	live := New(cfg)
	live.Start(setup(false)(live))
	live.Continue(4)
	snap := live.Snapshot(NoRunningThread)
	feeds := feedsFor(live.Trace().Events, snap.Seq, len(snap.Threads))
	live.Finish()
	if len(snap.Threads) != 3 || len(feeds[2]) != 1 {
		t.Fatalf("prefix: %d threads, b fed %d ops; want 3 threads, b fed its load", len(snap.Threads), len(feeds[2]))
	}

	before := runtime.NumGoroutine()
	ended, returned := make(chan struct{}), false
	go func() {
		defer close(ended)
		Restore(cfg, setup(true), snap, feeds)
		returned = true
	}()
	select {
	case <-ended:
	case <-time.After(2 * time.Second):
		t.Fatal("Restore still blocked 2s after a body called runtime.Goexit during feed replay")
	}
	if returned {
		t.Fatal("Restore returned; the Goexit should have ended its goroutine")
	}
	n := runtime.NumGoroutine()
	for i := 0; n > before && i < 200; i++ {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > before {
		t.Fatalf("%d goroutines before, %d after: a parked thread's coroutine was left behind", before, n)
	}
}

// TestForeignThreadUseCrashesTheCaller: an operation on another thread's
// *Thread is the calling thread's crash event — raised on its own stack, not
// a host panic on the driver — and the thread named is left as it was.
func TestForeignThreadUseCrashesTheCaller(t *testing.T) {
	for _, disableInline := range []bool{false, true} {
		m := New(Config{Seed: 1, CollectTrace: true, disableInline: disableInline})
		c := m.NewCell("c", trace.Int(0))
		ch := m.NewChan("ch", 1)
		s := m.Site("s")
		var b *Thread
		res := m.Run(func(t *Thread) {
			t.Spawn(s, "b", func(t *Thread) {
				b = t
				t.Recv(s, ch)
			})
			t.Spawn(s, "a", func(t *Thread) {
				for b == nil {
					t.Yield(s)
				}
				b.Load(s, c)
			})
		})
		const want = `panic: vm: thread "b" used from thread "a"'s body`
		if res.Outcome != OutcomeCrashed || res.Terminal.Val.AsString() != want || res.Terminal.TID != 2 {
			t.Fatalf("disableInline=%v: outcome %v, terminal %v; want thread 2 crashed with %q", disableInline, res.Outcome, res.Terminal, want)
		}
		if b.pending.code != opRecv || b.pending.obj != ch {
			t.Fatalf("disableInline=%v: b's pending op is now %s", disableInline, m.describePending(b))
		}
	}
}

// TestFinishReleasesEveryCoroutine: a run whose last event is a done
// thread's — a body's panic, or an exit at the step limit — ends that
// thread's coroutine too. Both used to stay parked forever: the machine
// stopped on the event and never resumed the thread, and releaseAll skipped
// it because it was done.
func TestFinishReleasesEveryCoroutine(t *testing.T) {
	cases := map[string]struct {
		cfg  Config
		body func(s trace.SiteID, c trace.ObjID) func(*Thread)
		want Outcome
	}{
		"panic": {Config{Seed: 1}, func(s trace.SiteID, c trace.ObjID) func(*Thread) {
			return func(t *Thread) {
				t.Load(s, c)
				panic("boom")
			}
		}, OutcomeCrashed},
		"exit at the step limit": {Config{Seed: 1, MaxSteps: 2}, func(s trace.SiteID, c trace.ObjID) func(*Thread) {
			return func(t *Thread) { t.Load(s, c) }
		}, OutcomeAborted},
	}
	for name, tc := range cases {
		before := runtime.NumGoroutine()
		for range 100 {
			m := New(tc.cfg)
			c, s := m.NewCell("c", trace.Int(0)), m.Site("s")
			if res := m.Run(tc.body(s, c)); res.Outcome != tc.want {
				t.Fatalf("%s: outcome %v, want %v", name, res.Outcome, tc.want)
			}
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("%s: %d goroutines before 100 runs, %d after", name, before, n)
		}
	}
}

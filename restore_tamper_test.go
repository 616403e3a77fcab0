package debugdet_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"debugdet"
	"debugdet/internal/vm"
	"debugdet/sim"
	"debugdet/trace"
)

// settledGoroutines polls until the goroutine count is back at or under the
// given baseline and returns the count it last saw.
func settledGoroutines(baseline int) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline || time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSeekRejectsTamperedSnapshot: a checkpoint whose liveness counters or
// mutex owners contradict the threads a restore rebuilds from it is an
// error, not a session. Trusted, a LiveNonDaemon of 0 made the seek stop at
// the checkpoint and RunToEnd report outcome ok after 192 of 415 events with
// four threads live; 99 made RunToEnd accept a deadlock event the recorded
// run never had; a mutex owned by thread -5 disabled every Lock of it.
func TestSeekRejectsTamperedSnapshot(t *testing.T) {
	ctx := context.Background()
	eng := debugdet.New()
	s, err := eng.ByName("bank")
	if err != nil {
		t.Fatal(err)
	}
	const at, target = 192, 212
	cases := map[string]func(*sim.Snapshot){
		"no non-daemon thread live":    func(cp *sim.Snapshot) { cp.LiveNonDaemon = 0 },
		"99 non-daemon threads live":   func(cp *sim.Snapshot) { cp.LiveNonDaemon = 99 },
		"one thread too few live":      func(cp *sim.Snapshot) { cp.Live--; cp.LiveNonDaemon-- },
		"mutex owned by thread -5":     func(cp *sim.Snapshot) { cp.Mutexes[0] = -5 },
		"mutex owned by a thread past": func(cp *sim.Snapshot) { cp.Mutexes[0] = trace.ThreadID(len(cp.Threads)) },
	}
	for name, tamper := range cases {
		t.Run(name, func(t *testing.T) {
			rec, _, err := eng.Record(ctx, s, debugdet.Perfect, debugdet.Options{CheckpointInterval: 64})
			if err != nil {
				t.Fatal(err)
			}
			var cp *sim.Snapshot
			for _, c := range rec.Checkpoints {
				if c.Seq == at {
					cp = c
				}
			}
			if cp == nil || rec.EventCount != 415 {
				t.Fatalf("no checkpoint at %d of %d events", at, rec.EventCount)
			}
			before := runtime.NumGoroutine()
			// Untouched, the checkpoint seeks and finishes as recorded.
			sess, err := eng.Seek(ctx, s, rec, target, debugdet.ReplayOptions{})
			if err != nil || sess.Pos() != target || !sess.FromCheckpoint {
				t.Fatalf("seek before tampering: pos %d, err %v", sess.Pos(), err)
			}
			if view, ok := sess.RunToEnd(); !ok || view.Result.Steps != rec.EventCount {
				t.Fatalf("run to end before tampering: ok=%v after %d events", ok, view.Result.Steps)
			}

			tamper(cp)
			sess, err = eng.Seek(ctx, s, rec, target, debugdet.ReplayOptions{})
			if !errors.Is(err, vm.ErrBadSnapshot) || sess != nil {
				t.Fatalf("seek on the tampered checkpoint: session %v, err %v; want ErrBadSnapshot and no session", sess, err)
			}
			if n := settledGoroutines(before); n > before {
				t.Fatalf("%d goroutines before the seeks, %d after: the failed restore left threads behind", before, n)
			}
		})
	}
}

package par

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// settle waits for the goroutine count to come back to the baseline.
// Ordered joins its workers before it returns, so this only absorbs the
// runtime's own bookkeeping goroutines.
func settle(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines: %d at baseline, %d after\n%s", baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOrderedPreservesOrder pins index order under the worst completion
// order: with every index in one window, index i cannot finish before i+1
// has, and the consumer still sees 0, 1, 2, ….
func TestOrderedPreservesOrder(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 4}, {1, 4}, {8, 1}, {8, 4}, {8, 8}, {8, 0}, {8, -3}, {40, 3},
	} {
		// Reverse completion needs every index running at once.
		reversed := tc.workers >= tc.n && tc.n > 1
		done := make([]chan struct{}, tc.n+1)
		for i := range done {
			done[i] = make(chan struct{})
		}
		if tc.n > 0 {
			close(done[tc.n])
		}
		next := 0
		for i, v := range Ordered(context.Background(), tc.n, tc.workers, func(_ context.Context, i int) int {
			if reversed {
				<-done[i+1]
				close(done[i])
			}
			return i * i
		}) {
			if i != next || v != i*i {
				t.Fatalf("n=%d workers=%d: yielded (%d, %d) at position %d", tc.n, tc.workers, i, v, next)
			}
			next++
		}
		if next != tc.n {
			t.Fatalf("n=%d workers=%d: yielded %d results", tc.n, tc.workers, next)
		}
	}
}

// TestWorkersIgnoresGOMAXPROCS pins that an explicit worker count survives
// a host with fewer Ps: only 0 reads GOMAXPROCS, and only n clamps.
func TestWorkersIgnoresGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range []struct{ workers, n, want int }{
		{0, 100, 1},
		{2, 100, 2},
		{8, 100, 8},
		{8, 3, 3},
	} {
		if got := Workers(tc.workers, tc.n); got != tc.want {
			t.Errorf("GOMAXPROCS=1: Workers(%d, %d) = %d, want %d", tc.workers, tc.n, got, tc.want)
		}
	}
}

// TestOrderedInlineIsLazy pins the sequential reference: with one worker
// fn(i+1) is not entered before the consumer's body for i has returned, and
// it runs on the consumer's goroutine (the unsynchronized counter is the
// race detector's check of that).
func TestOrderedInlineIsLazy(t *testing.T) {
	judged := 0
	for i := range Ordered(context.Background(), 10, 1, func(_ context.Context, i int) struct{} {
		if judged != i {
			t.Errorf("fn(%d) entered with %d indices judged", i, judged)
		}
		return struct{}{}
	}) {
		judged = i + 1
	}
	if judged != 10 {
		t.Fatalf("judged %d of 10", judged)
	}
}

// TestOrderedWindow pins the speculation bound: while the consumer sits on
// index 0, no more than ahead×workers indices (plus the one dispatched as 0
// was taken) have been started.
func TestOrderedWindow(t *testing.T) {
	const n, workers = 100, 3
	var started atomic.Int32
	for range Ordered(context.Background(), n, workers, func(_ context.Context, i int) int {
		started.Add(1)
		return i
	}) {
		time.Sleep(50 * time.Millisecond) // let the pool run as far ahead as it may
		if got := started.Load(); got > ahead*workers+1 {
			t.Fatalf("%d indices started while the consumer held index 0, window is %d", got, ahead*workers)
		}
		break
	}
}

// TestOrderedWindDown pins the termination contract for both ways a
// consumer leaves early, at one worker and at several: the iterator returns
// with every goroutine it started gone, fn's context cancelled, and no index
// yielded after the cut.
func TestOrderedWindDown(t *testing.T) {
	const n, cut = 50, 3
	for _, workers := range []int{1, 4} {
		for _, how := range []string{"break", "cancel"} {
			baseline := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			var fnCtx atomic.Value
			yielded := 0
			for i := range Ordered(ctx, n, workers, func(ctx context.Context, i int) int {
				fnCtx.Store(ctx)
				return i
			}) {
				yielded++
				if i != cut {
					continue
				}
				if how == "break" {
					break
				}
				cancel()
			}
			settle(t, baseline)
			if yielded != cut+1 {
				t.Errorf("workers=%d %s: %d results yielded, want %d", workers, how, yielded, cut+1)
			}
			if fnCtx.Load().(context.Context).Err() == nil {
				t.Errorf("workers=%d %s: fn's context still live after the iterator returned", workers, how)
			}
			cancel()
		}
	}
}

// TestOrderedCanceledBeforeStart pins that an already-cancelled context
// yields nothing, and at one worker runs nothing.
func TestOrderedCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		for i := range Ordered(ctx, 10, workers, func(context.Context, int) int {
			ran.Add(1)
			return 0
		}) {
			t.Fatalf("workers=%d: yielded index %d under a cancelled context", workers, i)
		}
		if workers == 1 && ran.Load() != 0 {
			t.Fatalf("sequential cancelled run entered fn %d times", ran.Load())
		}
	}
}

// TestOrderedStopsDispatchAfterBreak pins lowest-index-wins for consumers
// that stop at the first bad result (the grids' error rule): the consumer
// sees index 3, never 7, and the pool has not run on to the end.
func TestOrderedStopsDispatchAfterBreak(t *testing.T) {
	const n, bad = 200, 3
	for _, workers := range []int{1, 4} {
		var started atomic.Int32
		first := -1
		for i, failed := range Ordered(context.Background(), n, workers, func(_ context.Context, i int) bool {
			started.Add(1)
			return i == bad || i == 7
		}) {
			if failed {
				first = i
				break
			}
		}
		if first != bad {
			t.Fatalf("workers=%d: stopped at index %d, want %d", workers, first, bad)
		}
		if limit := int32(bad + 1 + ahead*workers + workers); started.Load() > limit {
			t.Fatalf("workers=%d: %d indices started, want <= %d", workers, started.Load(), limit)
		}
	}
}

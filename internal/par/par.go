// Package par is the repo's one worker pool: an ordered fan-out whose
// results are independent of the worker count (DESIGN.md §0 "Worker
// contract"). The inference search, the evaluation grids, EvaluateBatch and
// segmented replay all range over Ordered; nothing else starts a goroutine
// (TestGoStatementsStayInPar).
package par

import (
	"context"
	"iter"
	"runtime"
	"sync"
)

// Workers resolves a worker option against n items: 0 (or less; callers
// that reject negatives validate before they get here) means GOMAXPROCS,
// and more workers than items is clamped to n.
//
// An explicit count is not clamped to GOMAXPROCS, so what a caller asked
// for does not depend on the host's P count. Extra workers on too few Ps
// only interleave, and Ordered's results do not depend on how.
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, n)
}

// ahead is how many indices per worker may be started but not yet consumed.
// It bounds what a slow consumer or a slow frontier index lets pile up —
// results hold full traces — and what an early stop wastes. It is not the 2
// the search's own pool used because evaluation cells differ a hundredfold
// in cost: while one search-heavy cell holds the frontier the other workers
// need enough cheap cells inside the window to stay busy. Replaying bench's
// corpus grid (119 cells, two of them a quarter of the work each) on two
// workers from measured cell times gives a makespan of +42 % at 2 per
// worker, +32 % at 4, +4 % at 8 and that of an unbounded pool from 16 on.
const ahead = 16

// Ordered runs fn(ctx, i) for i in [0, n) and yields the results in index
// order, so a consumer that stops at the first index it accepts (or the
// first error) picks the lowest one whatever the worker count.
//
// With one worker (after Workers resolves the option) fn(i) runs lazily on
// the consumer's goroutine immediately before its result is yielded — the
// sequential reference: i+1 never starts before the consumer has judged i.
// With more, at most ahead×workers indices are started but not yet consumed,
// so a slow consumer bounds both the speculative work and the results held
// in memory. The context fn receives is cancelled when the consumer breaks or
// ctx ends; a consumer that observes ctx done before an index is yielded
// ends the sequence there, so fewer than n results means ctx.Err() != nil.
// The iterator returns only after every goroutine it started has exited.
func Ordered[T any](ctx context.Context, n, workers int, fn func(ctx context.Context, i int) T) iter.Seq2[int, T] {
	return func(yield func(int, T) bool) {
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		workers = Workers(workers, n)
		if workers <= 1 {
			for i := 0; i < n && ctx.Err() == nil; i++ {
				if !yield(i, fn(ctx, i)) {
					return
				}
			}
			return
		}

		// Index i is handed out only once i-window has been consumed, so
		// slot i%window is empty by then: neither channel send below can
		// block, and idx never holds more than window indices.
		window := min(ahead*workers, n)
		idx := make(chan int, window)
		slots := make([]chan T, window)
		for i := range slots {
			slots[i] = make(chan T, 1)
			idx <- i
		}
		var wg sync.WaitGroup
		for range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					if ctx.Err() != nil {
						return // winding down: leave the queued indices unrun
					}
					slots[i%window] <- fn(ctx, i)
				}
			}()
		}
		// Deferred calls run last-in first-out: cancel, release the workers
		// parked on idx, then wait for them.
		defer wg.Wait()
		defer close(idx)
		defer cancel()

		for i := range n {
			// Cancellation wins over a result that is already waiting: a
			// cancelled consumer must stop, not stream out what is buffered.
			if ctx.Err() != nil {
				return
			}
			var v T
			select {
			case v = <-slots[i%window]:
			case <-ctx.Done():
				return
			}
			if i+window < n {
				idx <- i + window
			}
			if !yield(i, v) {
				return
			}
		}
	}
}

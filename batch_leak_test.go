package debugdet_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"debugdet"
	"debugdet/internal/vm"
	"debugdet/scen"
)

// TestCancellationLeavesNoGoroutines pins the worker contract's wind-down
// (DESIGN.md §0) at every Engine entry point that fans out: however the
// call ends early — the consumer breaks, the context is cancelled
// mid-search, a chunk fails — it returns with no goroutine left behind,
// neither a pool worker nor a VM thread host. Checked goleak-style via the
// runtime.NumGoroutine delta.
func TestCancellationLeavesNoGoroutines(t *testing.T) {
	cases := map[string]func(t *testing.T){
		// Consuming only the first cell of the iter.Seq2 and breaking out
		// of the range loop must wind down the whole pool. Search-heavy
		// failure cells keep the workers mid-grid when the consumer leaves.
		"batch-break": func(t *testing.T) {
			eng := debugdet.New(debugdet.WithWorkers(4), debugdet.WithReplayBudget(60))
			jobs := debugdet.GridJobs(
				[]string{"sum", "overflow", "bank", "msgdrop", "fuzz-atomicity", "fuzz-oversell"},
				debugdet.Models())
			for range 3 {
				n := 0
				for res, err := range eng.EvaluateBatch(context.Background(), jobs) {
					if err != nil {
						t.Fatalf("%s/%s: %v", res.Job.Scenario, res.Job.Model, err)
					}
					if res.Evaluation == nil {
						t.Fatal("first cell has no evaluation")
					}
					n++
					break // consume one cell only; the rest of the grid is abandoned
				}
				if n != 1 {
					t.Fatalf("consumed %d cells, want 1", n)
				}
			}
		},
		// A failure-model replay cancelled while its four-worker search has
		// candidates in flight: the failure check is the search's accept
		// hook, so cancelling from its third call lands mid-search whatever
		// the host schedule.
		"replay-cancel": func(t *testing.T) {
			eng := debugdet.New(debugdet.WithWorkers(4))
			base, err := eng.ByName("bank")
			if err != nil {
				t.Fatal(err)
			}
			rec, _, err := eng.Record(context.Background(), base, debugdet.Failure, debugdet.Options{})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			s, judged := *base, 0
			s.Failure.Check = func(*scen.RunView) (bool, string) {
				if judged++; judged == 3 {
					cancel()
				}
				return false, ""
			}
			res, err := eng.Replay(ctx, &s, rec, debugdet.ReplayOptions{Budget: 200})
			if !errors.Is(err, context.Canceled) || res != nil {
				t.Fatalf("cancelled replay: result %v, err %v; want context.Canceled", res, err)
			}
			if judged != 3 {
				t.Fatalf("search judged %d candidates after the cancel at 3", judged)
			}
		},
		// A segmented replay whose last chunk cannot restore its tampered
		// boundary snapshot while the other two chunks replay theirs.
		"segmented-tampered": func(t *testing.T) {
			eng := debugdet.New()
			s, err := eng.ByName("bank")
			if err != nil {
				t.Fatal(err)
			}
			rec, _, err := eng.Record(context.Background(), s, debugdet.Perfect, debugdet.Options{CheckpointInterval: 64})
			if err != nil {
				t.Fatal(err)
			}
			if len(rec.Checkpoints) != 6 {
				t.Fatalf("%d checkpoints, want 6 (7 segments, chunks of 2, 2 and 3)", len(rec.Checkpoints))
			}
			rec.Checkpoints[3].LiveNonDaemon = 99 // opens the third chunk
			res, err := eng.ReplaySegmented(context.Background(), s, rec, debugdet.ReplayOptions{Workers: 3})
			if !errors.Is(err, vm.ErrBadSnapshot) || res != nil {
				t.Fatalf("segmented replay over a tampered snapshot: result %v, err %v; want ErrBadSnapshot", res, err)
			}
		},
		// A segmented replay cancelled through the method's context (not
		// ReplayOptions.Ctx) while its two chunks are running: the first
		// chunk to build its replay machine cancels.
		"segmented-cancel": func(t *testing.T) {
			eng := debugdet.New()
			base, err := eng.ByName("bank")
			if err != nil {
				t.Fatal(err)
			}
			rec, _, err := eng.Record(context.Background(), base, debugdet.Perfect, debugdet.Options{CheckpointInterval: 64})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			s := *base
			s.Build = func(m *vm.Machine, p scen.Params) func(*vm.Thread) {
				cancel()
				return base.Build(m, p)
			}
			res, err := eng.ReplaySegmented(ctx, &s, rec, debugdet.ReplayOptions{Workers: 2})
			if !errors.Is(err, context.Canceled) || res != nil {
				t.Fatalf("cancelled segmented replay: result %v, err %v; want context.Canceled", res, err)
			}
		},
	}
	for name, run := range cases {
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			run(t)
			if n := settledGoroutines(before); n > before {
				buf := make([]byte, 1<<20)
				t.Fatalf("goroutines: %d before, %d after\n%s", before, n, buf[:runtime.Stack(buf, true)])
			}
		})
	}
}

// TestEvaluateBatchWindow pins the speculation bound: while the consumer
// sits on the first cell, the pool starts at most a window (16×workers) of
// cells ahead of it, so a slow consumer no longer makes the workers finish
// the whole grid and hold every Evaluation — two run views with full
// traces each — in memory (at the parent all 60 cells ran). Every job has
// its own seed, so the seeds the scenario's failure check has seen are the
// jobs that have started.
func TestEvaluateBatchWindow(t *testing.T) {
	const workers, cells = 2, 60
	eng := debugdet.New(debugdet.WithWorkers(workers))
	base, err := eng.ByName("sum")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	seen := map[int64]bool{}
	started := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(seen)
	}
	s := *base
	s.Name = "sum-counted"
	s.Failure.Check = func(v *scen.RunView) (bool, string) {
		mu.Lock()
		seen[v.Trace.Header.Seed] = true
		mu.Unlock()
		return base.Failure.Check(v)
	}
	if err := eng.Register(&s); err != nil {
		t.Fatal(err)
	}
	jobs := make([]debugdet.Job, cells)
	for i := range jobs {
		jobs[i] = debugdet.Job{Scenario: s.Name, Model: debugdet.Perfect, Seed: int64(i + 1)}
	}
	first := true
	for _, err := range eng.EvaluateBatch(context.Background(), jobs) {
		if err != nil {
			t.Fatal(err)
		}
		if !first {
			continue
		}
		first = false
		// Block on the first cell until the pool has run as far ahead as it
		// will: the count has stopped moving.
		for n := -1; n != started(); time.Sleep(100 * time.Millisecond) {
			n = started()
		}
		// The window, plus one cell in flight per worker.
		if got, limit := started(), 16*workers+workers; got > limit {
			t.Fatalf("%d of %d cells started while the consumer held the first, want <= %d", got, cells, limit)
		}
	}
	if started() != cells {
		t.Fatalf("%d of %d cells ran", started(), cells)
	}
}

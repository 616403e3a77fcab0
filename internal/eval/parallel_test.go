package eval

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"
)

// TestParallelGridMatchesSequential pins the grid determinism contract:
// the full result rows of the figure/table generators are deep-equal for
// workers=1 and workers=N. Run with -race in CI, this is also the data
// -race check for the concurrent evaluation path.
func TestParallelGridMatchesSequential(t *testing.T) {
	seqO := Options{ReplayBudget: 80, Scenarios: []string{"sum", "overflow"}, Workers: 1}
	parO := seqO
	parO.Workers = 4

	seqRows, err := Fig1(seqO)
	if err != nil {
		t.Fatal(err)
	}
	parRows, err := Fig1(parO)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqRows, parRows) {
		t.Fatalf("Fig1 rows differ between workers=1 and workers=4:\nseq: %+v\npar: %+v", seqRows, parRows)
	}

	seqCells, err := Fig2(Options{ReplayBudget: 80, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parCells, err := Fig2(Options{ReplayBudget: 80, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqCells, parCells) {
		t.Fatalf("Fig2 cells differ between workers=1 and workers=4")
	}
}

// TestRunGridErrorIsLowestIndex pins deterministic error reporting: a
// parallel grid surfaces the same (lowest-index) error a sequential loop
// would have hit first — and stops dispatching once it has: a failing cell
// no longer costs the rest of the table (at the parent the pool ran all
// 200 cells).
func TestRunGridErrorIsLowestIndex(t *testing.T) {
	const n, bad = 200, 3
	for _, workers := range []int{1, 4} {
		var started atomic.Int32
		_, err := grid(Options{Workers: workers}.withDefaults(), n, func(i int) (int, error) {
			started.Add(1)
			if i == bad || i == 7 {
				return 0, errAt(i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "cell 3" {
			t.Fatalf("workers=%d: error = %v, want cell 3", workers, err)
		}
		// Failing index + par's 16×workers window + one in flight per worker.
		if limit := int32(bad + 1 + 16*workers + workers); started.Load() > limit {
			t.Fatalf("workers=%d: %d cells started after cell %d failed, want <= %d", workers, started.Load(), bad, limit)
		}
	}
}

// TestRunGridCanceled pins cancellation: a grid run under an
// already-canceled context returns the context error without running any
// cell.
func TestRunGridCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		_, err := grid(Options{Ctx: ctx, Workers: workers}, 10, func(i int) (int, error) {
			ran.Add(1)
			return i, nil
		})
		if err != context.Canceled {
			t.Fatalf("workers=%d: error = %v, want context.Canceled", workers, err)
		}
		if workers == 1 && ran.Load() != 0 {
			t.Fatalf("sequential canceled grid ran %d cells", ran.Load())
		}
	}
}

type errAt int

func (e errAt) Error() string { return "cell " + string(rune('0'+int(e))) }

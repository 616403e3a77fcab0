package debugdet_test

import (
	"bytes"
	"context"
	"runtime"
	"testing"
	"unsafe"

	"debugdet"
	"debugdet/trace"
)

// TestReplayClampsHeaderEventCount: an output, failure or value recording
// states its run's event count in the header, where nothing checks it
// against the file, and its replay starts its first trace array at that
// count. Rewritten to 2^40, the count must not size the array: the replay
// ends as the honest file's does (bank's output search exhausts its
// budget, the other two accept), its trace array holds at most
// the 64 Ki-event clamp, and it allocates at most the clamp's 4.5 MiB more
// than the honest replay. Unclamped, the array's make panics.
func TestReplayClampsHeaderEventCount(t *testing.T) {
	const clamp = 64 << 10
	clampBytes := int64(clamp * unsafe.Sizeof(trace.Event{}))
	ctx := context.Background()
	eng := debugdet.New()
	s, err := eng.ByName("bank")
	if err != nil {
		t.Fatal(err)
	}
	// resave writes rec with the given header count and loads it back.
	resave := func(rec *debugdet.Recording, events uint64) *debugdet.Recording {
		cp := *rec
		cp.EventCount = events
		var buf bytes.Buffer
		if err := debugdet.SaveRecording(&buf, &cp); err != nil {
			t.Fatal(err)
		}
		got, err := debugdet.LoadRecording(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	// replay reports a sequential replay and the bytes it allocated.
	replay := func(rec *debugdet.Recording) (*debugdet.ReplayResult, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := eng.Replay(ctx, s, rec, debugdet.ReplayOptions{Workers: 1})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return res, after.TotalAlloc - before.TotalAlloc
	}
	for _, model := range []debugdet.Model{debugdet.Output, debugdet.Failure, debugdet.Value} {
		t.Run(model.String(), func(t *testing.T) {
			rec, _, err := eng.Record(ctx, s, model, debugdet.Options{})
			if err != nil {
				t.Fatal(err)
			}
			honest, hostile := resave(rec, rec.EventCount), resave(rec, 1<<40)
			if hostile.EventCount != 1<<40 {
				t.Fatalf("the rewritten header loads as %d events", hostile.EventCount)
			}
			want, honestBytes := replay(honest)
			got, hostileBytes := replay(hostile)
			if got.Ok != want.Ok || got.Attempts != want.Attempts || got.WorkSteps != want.WorkSteps {
				t.Fatalf("hostile header: ok=%v attempts=%d steps=%d, honest ok=%v attempts=%d steps=%d",
					got.Ok, got.Attempts, got.WorkSteps, want.Ok, want.Attempts, want.WorkSteps)
			}
			if n := cap(got.View.Trace.Events); n > clamp {
				t.Fatalf("hostile header reserved a %d-event trace, clamp %d", n, clamp)
			}
			if extra := int64(hostileBytes) - int64(honestBytes); extra > clampBytes {
				t.Fatalf("hostile header allocated %d bytes more than the honest one, clamp %d", extra, clampBytes)
			}
		})
	}
}

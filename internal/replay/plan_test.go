package replay

import (
	"reflect"
	"sync"
	"testing"

	"debugdet/internal/checkpoint"
	"debugdet/internal/record"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
	"debugdet/internal/workload"
)

// The replay-side projections of a recording (feed plan, input map,
// segment bounds) are derived once per recording and shared by every Seek,
// Segmented and Debugger call on it (record.Recording.Feeds). These tests
// pin that the sharing is invisible: repeated and concurrent calls see the
// same positions and suffixes, a recording whose checkpoints change is not
// served a stale plan, and nothing a replay shares is written to.

// suffixOf seeks to target, checks the landing position and returns where
// the session resumed from and the suffix trace it replays to the end.
func suffixOf(t *testing.T, rec *record.Recording, target uint64) (from uint64, suffix []trace.Event) {
	t.Helper()
	s, err := workload.ByName(rec.Scenario)
	if err != nil {
		t.Error(err)
		return 0, nil
	}
	sess, err := Seek(s, rec, target, Options{})
	if err != nil {
		t.Errorf("seek %d: %v", target, err)
		return 0, nil
	}
	if sess.Pos() != target {
		t.Errorf("seek %d landed at %d", target, sess.Pos())
	}
	view, ok := sess.RunToEnd()
	if !ok {
		t.Errorf("seek %d: suffix replay not ok (%s)", target, view.Result.Outcome)
	}
	return sess.SuffixFrom, view.Trace.Events
}

func bankRecording(t *testing.T, interval uint64) *record.Recording {
	t.Helper()
	s, err := workload.ByName("bank")
	if err != nil {
		t.Fatal(err)
	}
	return recordCheckpointed(t, s, interval)
}

func TestSeekReusesTheRecordingsPlan(t *testing.T) {
	rec := bankRecording(t, 64)
	ref := Replay(workload.Bank(), rec, Options{}).View.Trace.Events
	target := rec.EventCount/2 + 7
	want := checkpoint.Best(rec.Checkpoints, target).Seq

	// Feeds are slices of the plan, so their backing array identifies it.
	planOf := func() *vm.FeedEntry {
		feeds, err := rec.Feeds(checkpoint.Best(rec.Checkpoints, target))
		if err != nil {
			t.Fatal(err)
		}
		return &feeds[0][0]
	}
	from1, first := suffixOf(t, rec, target)
	plan := planOf()
	from2, second := suffixOf(t, rec, target)
	if planOf() != plan {
		t.Error("the second Seek derived a new plan for an unchanged recording")
	}
	if from1 != want || from2 != want {
		t.Errorf("seeks resumed from %d and %d, want checkpoint %d", from1, from2, want)
	}
	for name, suffix := range map[string][]trace.Event{"first": first, "second": second} {
		if len(suffix) != len(ref[want:]) {
			t.Fatalf("%s seek: suffix has %d events, full replay has %d", name, len(suffix), len(ref[want:]))
		}
		for i := range suffix {
			if !EventsMatch(&suffix[i], &ref[want+uint64(i)]) {
				t.Fatalf("%s seek: event %d differs from the full replay", name, suffix[i].Seq)
			}
		}
	}
}

// TestConcurrentSeeksShareOnePlan races the first derivation of the plan:
// run it under -race.
func TestConcurrentSeeksShareOnePlan(t *testing.T) {
	rec := bankRecording(t, 64)
	ref := Replay(workload.Bank(), rec, Options{}).View.Trace.Events
	var wg sync.WaitGroup
	for g := uint64(0); g < 8; g++ {
		target := rec.EventCount * (g + 1) / 9
		wg.Add(1)
		go func() {
			defer wg.Done()
			from, suffix := suffixOf(t, rec, target)
			if uint64(len(suffix)) != uint64(len(ref))-from {
				t.Errorf("seek %d: suffix has %d events, want %d", target, len(suffix), uint64(len(ref))-from)
				return
			}
			for i := range suffix {
				if !EventsMatch(&suffix[i], &ref[from+uint64(i)]) {
					t.Errorf("seek %d: event %d differs from the full replay", target, suffix[i].Seq)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestCopyingARecordingDuringItsFirstReplay: Recordings are plain data and
// get copied by value. The first replay fills a slot the copy shares; it
// does not write the struct being copied (run under -race), and the copy
// replays like the original.
func TestCopyingARecordingDuringItsFirstReplay(t *testing.T) {
	rec := bankRecording(t, 64)
	target := rec.EventCount / 2
	var wg sync.WaitGroup
	var from uint64
	var suffix []trace.Event
	wg.Add(1)
	go func() {
		defer wg.Done()
		from, suffix = suffixOf(t, rec, target)
	}()
	c := *rec
	wg.Wait()
	cFrom, cSuffix := suffixOf(t, &c, target)
	if cFrom != from || len(cSuffix) != len(suffix) {
		t.Fatalf("copy resumed from %d with %d suffix events, original from %d with %d", cFrom, len(cSuffix), from, len(suffix))
	}
}

func TestChangedCheckpointsAreNotServedAStalePlan(t *testing.T) {
	rec := bankRecording(t, 64)
	coarse := bankRecording(t, 96).Checkpoints
	fine := rec.Checkpoints
	target := rec.EventCount - 5

	if from, _ := suffixOf(t, rec, target); from != checkpoint.Best(fine, target).Seq {
		t.Fatalf("seek resumed from %d, want %d", from, checkpoint.Best(fine, target).Seq)
	}
	rec.Checkpoints = nil
	if from, _ := suffixOf(t, rec, target); from != 0 {
		t.Fatalf("cleared checkpoints: seek still resumed from %d", from)
	}
	if segs := rec.Segments(); len(segs) != 1 {
		t.Fatalf("cleared checkpoints: store still has %d segments", len(segs))
	}
	rec.Checkpoints = coarse
	if from, _ := suffixOf(t, rec, target); from != checkpoint.Best(coarse, target).Seq {
		t.Fatalf("replaced checkpoints: seek resumed from %d, want %d", from, checkpoint.Best(coarse, target).Seq)
	}
	// Replaced by a different slice of the same length.
	k := len(coarse) / 2
	rec.Checkpoints = fine[:k]
	if from, _ := suffixOf(t, rec, target); from != fine[k-1].Seq {
		t.Fatalf("seek resumed from %d, want %d", from, fine[k-1].Seq)
	}
	rec.Checkpoints = coarse[:k]
	if from, _ := suffixOf(t, rec, target); from != coarse[k-1].Seq {
		t.Fatalf("same-length replacement: seek resumed from %d, want %d", from, coarse[k-1].Seq)
	}
}

// TestReplaysLeaveSharedSnapshotsUntouched: checkpoints alias the recorded
// machine's stream histories and are restored by many workers at once;
// every one must still equal the private copy taken before any replay.
// Run it under -race.
func TestReplaysLeaveSharedSnapshotsUntouched(t *testing.T) {
	rec := bankRecording(t, 32)
	copies := make([]*vm.Snapshot, len(rec.Checkpoints))
	for i, cp := range rec.Checkpoints {
		c := *cp
		c.Streams = make([]vm.StreamSnap, len(cp.Streams))
		for j, st := range cp.Streams {
			c.Streams[j] = st
			c.Streams[j].Inputs = append([]trace.Value(nil), st.Inputs...)
			c.Streams[j].Outputs = append([]trace.Value(nil), st.Outputs...)
		}
		copies[i] = &c
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One worker per segment: every checkpoint is restored.
			res, err := Segmented(workload.Bank(), rec, Options{Workers: len(rec.Checkpoints) + 1})
			if err != nil || !res.Ok {
				t.Errorf("segmented replay: ok=%v err=%v", res != nil && res.Ok, err)
			}
		}()
	}
	suffixOf(t, rec, rec.EventCount/3)
	wg.Wait()
	for i, cp := range rec.Checkpoints {
		if err := cp.EqualState(copies[i]); err != nil {
			t.Fatalf("checkpoint at %d changed under replay: %v", cp.Seq, err)
		}
		if !reflect.DeepEqual(cp.Streams, copies[i].Streams) {
			t.Fatalf("checkpoint at %d: stream histories changed under replay", cp.Seq)
		}
	}
}

package checkpoint_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"debugdet/internal/checkpoint"
	"debugdet/internal/record"
	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
	"debugdet/internal/wire"
	"debugdet/internal/workload"
)

// rehydrateReference is the per-snapshot RehydrateStreams that shipped
// before the one-pass version: every snapshot re-scans its whole event
// prefix and gets private history slices. It is kept as the oracle the
// one-pass version must agree with, result for result and error for error.
func rehydrateReference(snaps []*vm.Snapshot, events []trace.Event) error {
	for _, s := range snaps {
		if uint64(len(events)) < s.Seq {
			return fmt.Errorf("checkpoint: rehydrate needs %d events, recording has %d", s.Seq, len(events))
		}
		for i := range s.Streams {
			s.Streams[i].Inputs = nil
			s.Streams[i].Outputs = nil
		}
		for i := uint64(0); i < s.Seq; i++ {
			e := &events[i]
			if e.Kind != trace.EvInput && e.Kind != trace.EvOutput {
				continue
			}
			if int(e.Obj) >= len(s.Streams) {
				return fmt.Errorf("checkpoint: event %d touches stream %d, snapshot has %d", i, e.Obj, len(s.Streams))
			}
			st := &s.Streams[e.Obj]
			if e.Kind == trace.EvInput {
				st.Inputs = append(st.Inputs, e.Val)
			} else {
				st.Outputs = append(st.Outputs, e.Val)
			}
		}
		for i := range s.Streams {
			if len(s.Streams[i].Inputs) != s.Streams[i].InIndex {
				return fmt.Errorf("checkpoint: stream %q rebuilt %d inputs, cursor says %d",
					s.Streams[i].Name, len(s.Streams[i].Inputs), s.Streams[i].InIndex)
			}
		}
	}
	return nil
}

// captureScenario records s under the perfect model with about six
// checkpoints, whatever its length.
func captureScenario(t *testing.T, s *scenario.Scenario) *record.Recording {
	t.Helper()
	plain, _, err := record.Record(s, record.Perfect, s.DefaultSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	run, w := record.Run(s, s.DefaultSeed, nil, 0, max(plain.EventCount/6, 4))
	rec, _ := record.Project(s, run, w, record.Perfect, record.PolicyFor(record.Perfect))
	return rec
}

// stripped returns the snapshots as a .ddrc load sees them before
// rehydration: an independent deep copy without stream histories.
func stripped(t *testing.T, snaps []*vm.Snapshot) []*vm.Snapshot {
	t.Helper()
	var buf bytes.Buffer
	if _, err := checkpoint.EncodeSnapshots(&buf, snaps); err != nil {
		t.Fatal(err)
	}
	out, err := checkpoint.DecodeSnapshots(bufioReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRehydrateMatchesReferenceOnCorpus: over every corpus scenario the
// one-pass rehydration yields snapshots deep-equal to the per-snapshot
// reference's — and to the snapshots as captured.
func TestRehydrateMatchesReferenceOnCorpus(t *testing.T) {
	for _, s := range workload.All() {
		t.Run(s.Name, func(t *testing.T) {
			rec := captureScenario(t, s)
			if len(rec.Checkpoints) == 0 {
				t.Skip("run too short for a checkpoint")
			}
			got, want := stripped(t, rec.Checkpoints), stripped(t, rec.Checkpoints)
			if err := checkpoint.RehydrateStreams(got, rec.Full); err != nil {
				t.Fatal(err)
			}
			if err := rehydrateReference(want, rec.Full); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("one-pass rehydration differs from the per-snapshot reference")
			}
			if !reflect.DeepEqual(got, rec.Checkpoints) {
				t.Fatal("rehydrated snapshots differ from the captured ones")
			}
		})
	}
}

// streamEvents builds a complete event stream from a compact script: 'i'
// and 'o' followed by a digit are an input or output on that stream, '.'
// is an event that touches no stream; spaces are ignored. Values are the
// event's sequence number, so every history element is distinguishable.
func streamEvents(script string) []trace.Event {
	var events []trace.Event
	for i := 0; i < len(script); i++ {
		if script[i] == ' ' {
			continue
		}
		e := trace.Event{Seq: uint64(len(events)), Kind: trace.EvYield, Val: trace.Int(int64(len(events)))}
		if script[i] != '.' {
			e.Kind = trace.EvInput
			if script[i] == 'o' {
				e.Kind = trace.EvOutput
			}
			i++
			e.Obj = trace.ObjID(script[i] - '0')
		}
		events = append(events, e)
	}
	return events
}

// snapAt builds a snapshot at seq whose stream table has the given input
// cursors (one stream per cursor).
func snapAt(seq uint64, cursors ...int) *vm.Snapshot {
	s := &vm.Snapshot{Seq: seq, Streams: make([]vm.StreamSnap, len(cursors))}
	for i, c := range cursors {
		s.Streams[i] = vm.StreamSnap{Name: fmt.Sprintf("s%d", i), InIndex: c}
	}
	return s
}

// TestRehydrateMatchesReferenceOnAdversarialInput drives both versions
// over snapshot sets no recorder produces: they must return the same error
// (or none) and, without an error, deep-equal snapshots.
func TestRehydrateMatchesReferenceOnAdversarialInput(t *testing.T) {
	//                     seq: 0 1 2  3 4  5 6  7 8  9
	events := streamEvents("i0 . o1 i0 . i2 o0 . i1 i0")
	cases := []struct {
		name    string
		snaps   func() []*vm.Snapshot
		wantErr bool
	}{
		{"sorted", func() []*vm.Snapshot {
			return []*vm.Snapshot{snapAt(0), snapAt(3, 1, 0), snapAt(6, 2, 0, 1), snapAt(10, 3, 1, 1)}
		}, false},
		{"unsorted", func() []*vm.Snapshot {
			return []*vm.Snapshot{snapAt(10, 3, 1, 1), snapAt(3, 1, 0), snapAt(6, 2, 0, 1), snapAt(1, 1)}
		}, false},
		{"two at one seq", func() []*vm.Snapshot {
			return []*vm.Snapshot{snapAt(6, 2, 0, 1), snapAt(4, 2, 0), snapAt(6, 2, 0, 1, 0)}
		}, false},
		{"extra pristine streams", func() []*vm.Snapshot {
			return []*vm.Snapshot{snapAt(3, 1, 0, 0, 0), snapAt(10, 3, 1, 1, 0, 0)}
		}, false},
		{"fewer streams than the prefix touches", func() []*vm.Snapshot {
			return []*vm.Snapshot{snapAt(3, 1, 0), snapAt(10, 3)}
		}, true},
		{"fewer streams than an earlier snapshot", func() []*vm.Snapshot {
			return []*vm.Snapshot{snapAt(6, 2, 0, 1), snapAt(7, 2, 0)}
		}, true},
		{"cursor mismatch", func() []*vm.Snapshot {
			return []*vm.Snapshot{snapAt(3, 1, 0), snapAt(6, 1, 0, 1)}
		}, true},
		{"events shorter than seq", func() []*vm.Snapshot {
			return []*vm.Snapshot{snapAt(3, 1, 0), snapAt(11, 3, 1, 1)}
		}, true},
		{"first bad snapshot in slice order is not first in seq order", func() []*vm.Snapshot {
			return []*vm.Snapshot{snapAt(10, 3, 1, 1), snapAt(9, 0, 0, 0), snapAt(3, 7, 0)}
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, want := tc.snaps(), tc.snaps()
			gotErr := checkpoint.RehydrateStreams(got, events)
			wantErr := rehydrateReference(want, events)
			if (wantErr != nil) != tc.wantErr {
				t.Fatalf("reference error = %v, case expects error: %v", wantErr, tc.wantErr)
			}
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("error %q, reference %q", gotErr, wantErr)
			}
			if gotErr == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("snapshots differ from the reference:\ngot  %+v\nwant %+v", got, want)
			}
		})
	}

	// The reported event is the earliest touching any missing stream, which
	// need not be the lowest missing stream.
	for _, script := range []string{"i0 i2 i1", "i0 o3 . i1"} {
		evs := streamEvents(script)
		got, want := []*vm.Snapshot{snapAt(uint64(len(evs)), 1)}, []*vm.Snapshot{snapAt(uint64(len(evs)), 1)}
		g, w := checkpoint.RehydrateStreams(got, evs), rehydrateReference(want, evs)
		if g == nil || fmt.Sprint(g) != fmt.Sprint(w) {
			t.Errorf("%q: error %q, reference %q", script, g, w)
		}
	}
}

// TestRehydrateHostileStreamID: a stream ID is read straight from the file
// and must size nothing. An event naming stream 2^31 (or 2^32-1, which as
// an int on a 32-bit platform is negative) under any snapshot past it is
// the usual typed error, at once and without reserving a slot per skipped
// ID. A wider ID — 2^32, 2^40 or 2^64-1 written as a raw uvarint — never
// reaches rehydration: the event section it sits in is corrupt.
func TestRehydrateHostileStreamID(t *testing.T) {
	for _, obj := range []trace.ObjID{1 << 31, math.MaxUint32} {
		events := streamEvents("i0 i0 . i0")
		events[1].Obj = obj
		snaps := []*vm.Snapshot{snapAt(1, 1), snapAt(4, 3)}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := checkpoint.RehydrateStreams(snaps, events)
		runtime.ReadMemStats(&after)
		want := fmt.Sprintf("checkpoint: event 1 touches stream %d, snapshot has 1", obj)
		if err == nil || err.Error() != want {
			t.Errorf("stream %d: error %v, want %q", obj, err, want)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
			t.Errorf("stream %d: rehydrate allocated %d bytes", obj, d)
		}
	}

	events := streamEvents("i0 i0 . i0")
	events[1].Obj = math.MaxUint32
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	trace.WriteEvents(w, events)
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	widest := binary.AppendUvarint(nil, math.MaxUint32)
	if n := bytes.Count(buf.Bytes(), widest); n != 1 {
		t.Fatalf("the event section holds the uvarint of 2^32-1 %d times, want once", n)
	}
	for _, obj := range []uint64{1 << 32, 1 << 40, math.MaxUint64} {
		data := bytes.Replace(buf.Bytes(), widest, binary.AppendUvarint(nil, obj), 1)
		r := wire.NewReader(bytes.NewReader(data), trace.ErrCorrupt)
		if got, _ := trace.ReadEvents(r); got != nil || !errors.Is(r.Err(), trace.ErrCorrupt) {
			t.Errorf("stream %d: read %d events, error %v, want trace.ErrCorrupt", obj, len(got), r.Err())
		}
	}
}

// TestRehydratedHistoriesAreCapLimited: snapshots share one growing array
// per stream, so an append through one snapshot's history must not reach
// the next snapshot's view of it.
func TestRehydratedHistoriesAreCapLimited(t *testing.T) {
	events := streamEvents("i0 i0 i0 i0")
	snaps := []*vm.Snapshot{snapAt(2, 2), snapAt(4, 4)}
	if err := checkpoint.RehydrateStreams(snaps, events); err != nil {
		t.Fatal(err)
	}
	early := snaps[0].Streams[0].Inputs
	_ = append(early, trace.Int(-1))
	if got := snaps[1].Streams[0].Inputs[2]; !got.Equal(trace.Int(2)) {
		t.Fatalf("append through the earlier snapshot overwrote the later one's history: %v", got)
	}
}

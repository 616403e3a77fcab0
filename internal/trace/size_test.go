package trace_test

import (
	"io"
	"math"
	"strings"
	"testing"

	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/wire"
	"debugdet/internal/workload"
)

// sectionBytes returns what WriteEvents writes for events, less the count.
func sectionBytes(events []trace.Event) int64 {
	w := wire.NewWriter(io.Discard)
	trace.WriteEvents(w, events)
	n, _ := w.Finish()
	return n - int64(wire.UvarintLen(uint64(len(events))))
}

// extremeEvents is a run whose fields reach the ends of their types:
// sequence and time at zero and at 2^64−1, running backwards as well as
// forwards (the deltas wrap), the largest site and object IDs, negative
// thread IDs, and every value kind at its extremes.
func extremeEvents() []trace.Event {
	vals := []trace.Value{trace.Nil, trace.Int(math.MinInt64), trace.Int(math.MaxInt64), trace.Int(-1),
		trace.Int(63), trace.Int(64), trace.Bool(true), trace.Bool(false), trace.Str(""),
		trace.Str(strings.Repeat("s", 300)), trace.Blob(""), trace.Blob(strings.Repeat("\x00", 128))}
	tids := []trace.ThreadID{0, -1, math.MinInt32, math.MaxInt32, 63, -64, -65}
	seqs := []uint64{0, 1, math.MaxUint64, 127, 128, 1 << 63, 5}
	var events []trace.Event
	for i, v := range vals {
		for j, tid := range tids {
			events = append(events, trace.Event{
				Seq:   seqs[(i+j)%len(seqs)],
				Time:  seqs[(i*3+j)%len(seqs)],
				TID:   tid,
				Kind:  trace.EvStore,
				Site:  trace.SiteID(math.MaxUint32 >> (4 * (j % 9))),
				Obj:   trace.ObjID(math.MaxUint32 >> (7 * (i % 5))),
				Taint: trace.TaintData,
				Val:   v,
			})
		}
	}
	return events
}

// TestEventSizeIsEncodedSize: EventSize is what WriteEvents writes for an
// event after its predecessor — each extreme event alone and after each
// neighbour, and summed over every corpus run at its default seed.
func TestEventSizeIsEncodedSize(t *testing.T) {
	extremes := extremeEvents()
	for i := range extremes {
		e := &extremes[i]
		if got, want := int64(trace.EventSize(nil, e)), sectionBytes(extremes[i:i+1]); got != want {
			t.Errorf("extreme event %d (%+v) alone: EventSize %d, written %d", i, *e, got, want)
		}
		if i == 0 {
			continue
		}
		prev := &extremes[i-1]
		pair := sectionBytes(extremes[i-1 : i+1])
		if got, want := int64(trace.EventSize(prev, e)), pair-sectionBytes(extremes[i-1:i]); got != want {
			t.Errorf("extreme event %d (%+v) after %+v: EventSize %d, written %d", i, *e, *prev, got, want)
		}
	}

	for _, s := range workload.All() {
		events := s.Exec(scenario.ExecOptions{Seed: s.DefaultSeed}).Trace.Events
		var sum int64
		var prev *trace.Event
		for i := range events {
			sum += int64(trace.EventSize(prev, &events[i]))
			prev = &events[i]
		}
		if want := sectionBytes(events); sum != want || want == 0 {
			t.Errorf("%s: EventSize sums to %d over %d events, WriteEvents wrote %d", s.Name, sum, len(events), want)
		}
	}
}

// TestSchedEntrySizeIsEncodedSize: SchedEntrySize is what WriteSched
// writes for each entry after its predecessor.
func TestSchedEntrySizeIsEncodedSize(t *testing.T) {
	sched := []trace.ThreadID{0, 63, 64, -1, math.MinInt32, math.MaxInt32, math.MinInt32, 5, 5}
	var sum int64
	prev := trace.ThreadID(0)
	for _, tid := range sched {
		sum += int64(trace.SchedEntrySize(prev, tid))
		prev = tid
	}
	w := wire.NewWriter(io.Discard)
	trace.WriteSched(w, sched)
	n, _ := w.Finish()
	if want := n - int64(wire.UvarintLen(uint64(len(sched)))); sum != want {
		t.Fatalf("SchedEntrySize sums to %d, WriteSched wrote %d", sum, want)
	}
}

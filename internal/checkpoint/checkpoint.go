package checkpoint

import (
	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// DefaultInterval is the event interval between snapshots when none is
// configured: small enough that a seek replays a short suffix, large
// enough that checkpoint volume stays a fraction of the event log.
const DefaultInterval = 256

// Writer is a vm.Observer that captures a state snapshot every interval
// events. Attach it to the recording (or replaying) machine alongside the
// recorder; the snapshots become Recording.Checkpoints. The capture work
// is priced like any recording work — each snapshot charges its encoded
// size in the section that stores it against the machine's cost model, so
// checkpointed recordings report honestly higher overhead.
type Writer struct {
	m        *vm.Machine
	interval uint64
	cost     *vm.CostModel
	snaps    []*vm.Snapshot
	bytes    int64
	sink     func(*vm.Snapshot, int64)
}

// NewWriter returns a writer capturing every interval events on m
// (0 = DefaultInterval).
func NewWriter(m *vm.Machine, interval uint64) *Writer {
	if interval == 0 {
		interval = DefaultInterval
	}
	return &Writer{m: m, interval: interval, cost: m.Cost()}
}

// NewStreamingWriter returns a writer that hands each captured snapshot,
// with the encoded size it charged for it, to sink instead of retaining
// it. Capture timing is identical to NewWriter's, but each snapshot is
// priced standalone, as the segment that carries it alone stores it: a
// retained writer prices a snapshot after its predecessor, whose thread
// and stream names it does not repeat, so a streamed run charges at least
// the RecordCycles of a retained one. Ownership of every snapshot moves to
// the sink, so a bounded-memory consumer (the flight recorder's building
// segment) does not pay for a second, unbounded copy in the writer.
// Snapshots returns nil for a streaming writer; Bytes still accumulates.
func NewStreamingWriter(m *vm.Machine, interval uint64, sink func(snap *vm.Snapshot, size int64)) *Writer {
	w := NewWriter(m, interval)
	w.sink = sink
	return w
}

// OnEvent implements vm.Observer: on interval boundaries it snapshots the
// machine and returns the virtual-cycle cost of persisting the snapshot.
func (w *Writer) OnEvent(e *trace.Event) uint64 {
	if e.Kind.IsTerminal() {
		return 0
	}
	if w.m.Seq()%w.interval != 0 {
		return 0
	}
	s := w.m.Snapshot(e.TID)
	// A retained snapshot follows its predecessor in one section; a
	// streamed one is its segment's only snapshot (w.snaps stays empty).
	var prev *vm.Snapshot
	if len(w.snaps) > 0 {
		prev = w.snaps[len(w.snaps)-1]
	}
	n := SnapshotSize(prev, s)
	w.bytes += n
	if w.sink != nil {
		w.sink(s, n)
	} else {
		w.snaps = append(w.snaps, s)
	}
	return w.cost.RecordCost(int(n))
}

// Snapshots returns the captured checkpoints, in trace order.
func (w *Writer) Snapshots() []*vm.Snapshot { return w.snaps }

// Bytes returns the total encoded size of the captured checkpoints.
func (w *Writer) Bytes() int64 { return w.bytes }

// Interval returns the configured capture interval.
func (w *Writer) Interval() uint64 { return w.interval }

// Best returns the latest checkpoint whose sequence number is ≤ target,
// or nil when none qualifies (seek must fall back to replay-from-start).
// The slice may be in any order — a recording's table is read from a file,
// and only PlanFeeds holds it to trace order — so Best scans the whole
// slice for the maximum qualifying Seq instead of assuming it can stop at
// the first Seq > target.
func Best(snaps []*vm.Snapshot, target uint64) *vm.Snapshot {
	var best *vm.Snapshot
	for _, s := range snaps {
		if s.Seq <= target && (best == nil || s.Seq > best.Seq) {
			best = s
		}
	}
	return best
}

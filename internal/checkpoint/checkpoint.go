package checkpoint

import (
	"fmt"
	"math"
	"sort"

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
// size against the machine's cost model, so checkpointed recordings
// report honestly higher overhead.
type Writer struct {
	m        *vm.Machine
	interval uint64
	cost     *vm.CostModel
	snaps    []*vm.Snapshot
	bytes    int64
	sink     func(*vm.Snapshot)
}

// NewWriter returns a writer capturing every interval events on m
// (0 = DefaultInterval).
func NewWriter(m *vm.Machine, interval uint64) *Writer {
	if interval == 0 {
		interval = DefaultInterval
	}
	return &Writer{m: m, interval: interval, cost: m.Cost()}
}

// NewStreamingWriter returns a writer that hands each captured snapshot to
// sink instead of retaining it. Capture timing and cost accounting are
// identical to NewWriter — a streamed run charges the same RecordCycles as
// a retained run — but ownership of every snapshot moves to the sink, so a
// bounded-memory consumer (the flight recorder's segment ring) does not
// pay for a second, unbounded copy in the writer. Snapshots returns nil
// for a streaming writer; Bytes still accumulates.
func NewStreamingWriter(m *vm.Machine, interval uint64, sink func(*vm.Snapshot)) *Writer {
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
	n := SnapshotSize(s)
	w.bytes += n
	if w.sink != nil {
		w.sink(s)
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
// The slice may be in any order: merged or overlaid snapshot sources (a
// flight recorder's segment ring spliced with retained disk segments, or
// flightrec.WithSnapshots overlays) do not guarantee trace order, so Best
// scans the whole slice for the maximum qualifying Seq instead of
// assuming it can stop at the first Seq > target.
func Best(snaps []*vm.Snapshot, target uint64) *vm.Snapshot {
	var best *vm.Snapshot
	for _, s := range snaps {
		if s.Seq <= target && (best == nil || s.Seq > best.Seq) {
			best = s
		}
	}
	return best
}

// Feeds derives the per-thread operation outcomes of the first seq events
// of a fully recorded trace: the input vm.Restore needs to rebuild each
// thread's position by feed replay. events must be the complete event
// prefix (every event, with values — a perfect-model recording's Full
// stream); threads is the thread count of the snapshot being restored.
// The prefix is validated and counted per thread first, so every feed
// slice is allocated exactly once.
func Feeds(events []trace.Event, seq uint64, threads int) ([][]vm.FeedEntry, error) {
	if uint64(len(events)) < seq {
		return nil, fmt.Errorf("checkpoint: prefix needs %d events, recording has %d", seq, len(events))
	}
	counts := make([]int, threads)
	for i := uint64(0); i < seq; i++ {
		e := &events[i]
		if e.Seq != i {
			return nil, fmt.Errorf("checkpoint: event %d has seq %d; prefix is not a complete event stream", i, e.Seq)
		}
		if e.TID < 0 || int(e.TID) >= threads {
			return nil, fmt.Errorf("checkpoint: event %d belongs to thread %d, snapshot has %d threads", i, e.TID, threads)
		}
		counts[e.TID]++
	}
	feeds := make([][]vm.FeedEntry, threads)
	for tid, n := range counts {
		if n > 0 {
			feeds[tid] = make([]vm.FeedEntry, 0, n)
		}
	}
	for i := uint64(0); i < seq; i++ {
		e := &events[i]
		fe := vm.FeedEntry{Kind: e.Kind, OK: true}
		//lint:exhaustive-default kinds without replay payloads need no feed fields; the zero FeedEntry is correct for them
		switch e.Kind {
		case trace.EvLoad, trace.EvRecv, trace.EvInput, trace.EvDiskRead:
			// The event's taint is the provenance of the value read — the
			// operation's contribution to the thread's taint register.
			fe.Val = e.Val
			fe.Taint = e.Taint
		case trace.EvStore, trace.EvDiskWrite, trace.EvDiskFsync,
			trace.EvDiskBarrier, trace.EvDiskCrash:
			// Disk events carry the operation's result as their value —
			// the same invariant memory events obey.
			fe.Val = e.Val
		case trace.EvSpawn:
			// A spawn's result is the child thread ID, carried in Obj.
			fe.Val = trace.Int(int64(e.Obj))
		case trace.EvYield:
			// Yields cover failed try-sends/try-receives and expired
			// timeouts; their second result is false. Plain yields ignore
			// the outcome entirely.
			fe.OK = false
		}
		feeds[e.TID] = append(feeds[e.TID], fe)
	}
	return feeds, nil
}

// FeedPlan is the shared feed derivation for a whole recording: the full
// per-thread operation outcomes, plus each checkpoint's per-thread
// position, computed in one pass. Segmented replay restores many
// checkpoints of the same recording; slicing one plan instead of
// re-deriving per segment keeps the non-replay work linear in the trace.
// The backing arrays are shared between slices and must be treated as
// read-only, which makes a plan safe for concurrent use.
type FeedPlan struct {
	full   [][]vm.FeedEntry
	counts map[uint64][]int // checkpoint seq → events per thread before it
}

// PlanFeeds builds the shared feed plan covering every given checkpoint.
// They must be in trace order, as captured — which also means none has more
// threads than the last; a table that is not (a tampered recording's) is
// an error.
func PlanFeeds(events []trace.Event, cps []*vm.Snapshot) (*FeedPlan, error) {
	if len(cps) == 0 {
		return &FeedPlan{counts: map[uint64][]int{}}, nil
	}
	last := cps[len(cps)-1]
	for i, cp := range cps {
		if (i > 0 && cp.Seq < cps[i-1].Seq) || len(cp.Threads) > len(last.Threads) {
			return nil, fmt.Errorf("checkpoint: snapshot at %d is out of trace order", cp.Seq)
		}
	}
	full, err := Feeds(events, last.Seq, len(last.Threads))
	if err != nil {
		return nil, err
	}
	plan := &FeedPlan{full: full, counts: make(map[uint64][]int, len(cps))}
	counts := make([]int, len(last.Threads))
	next := 0
	for i := uint64(0); next < len(cps); i++ {
		for next < len(cps) && cps[next].Seq == i {
			plan.counts[i] = append([]int(nil), counts[:len(cps[next].Threads)]...)
			next++
		}
		if i < uint64(len(events)) && next < len(cps) {
			counts[events[i].TID]++
		}
	}
	return plan, nil
}

// At returns the per-thread feeds for restoring the given checkpoint,
// sliced out of the shared plan.
func (p *FeedPlan) At(cp *vm.Snapshot) ([][]vm.FeedEntry, error) {
	counts, ok := p.counts[cp.Seq]
	if !ok || len(counts) != len(cp.Threads) {
		return nil, fmt.Errorf("checkpoint: feed plan does not cover checkpoint at %d", cp.Seq)
	}
	feeds := make([][]vm.FeedEntry, len(cp.Threads))
	for tid := range feeds {
		feeds[tid] = p.full[tid][:counts[tid]]
	}
	return feeds, nil
}

// RehydrateStreams rebuilds the per-stream history portion of decoded
// snapshots from the recording's event prefix: the consumed input and
// emitted output sequences are projections of the full event stream, so
// the codec does not persist them (checkpoint volume stays proportional
// to live state, not trace length). It validates the rebuilt histories
// against the persisted input cursors.
//
// The prefix is walked once for all snapshots, visited in Seq order (the
// slice itself may be in any order): each snapshot receives cap-limited
// prefixes of one growing array per stream — what a live capture holds
// too (see vm.StreamSnap) — so the histories are read-only. When several
// snapshots are malformed the error is that of the first in slice order.
func RehydrateStreams(snaps []*vm.Snapshot, events []trace.Event) error {
	order := make([]int, len(snaps))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return snaps[order[a]].Seq < snaps[order[b]].Seq })
	// One history slot per stream of the widest snapshot, fixed up front:
	// stream IDs come straight from the file and must not size anything.
	streams := 0
	for _, s := range snaps {
		streams = max(streams, len(s.Streams))
	}
	r := rehydrator{events: events, hist: make([]struct{ in, out []trace.Value }, streams)}
	var firstErr error
	firstBad := len(snaps)
	for _, idx := range order {
		if err := r.fill(snaps[idx]); err != nil && idx < firstBad {
			firstErr, firstBad = err, idx
		}
	}
	return firstErr
}

// rehydrator walks an event stream once, forward, extending one history
// per stream as it goes.
type rehydrator struct {
	events []trace.Event
	pos    uint64 // events[:pos] are reflected in hist
	hist   []struct{ in, out []trace.Value }
	top    uint64 // events[:pos] touch no stream at or past top
}

// fill advances the walk to s.Seq and hands s its histories. Snapshots
// must arrive in Seq order.
func (r *rehydrator) fill(s *vm.Snapshot) error {
	if uint64(len(r.events)) < s.Seq {
		return fmt.Errorf("checkpoint: rehydrate needs %d events, recording has %d", s.Seq, len(r.events))
	}
	for ; r.pos < s.Seq; r.pos++ {
		e := &r.events[r.pos]
		//lint:exhaustive-default only stream events rebuild Inputs/Outputs; other kinds do not touch streams
		switch e.Kind {
		case trace.EvInput, trace.EvOutput:
			if uint64(e.Obj) >= uint64(len(r.hist)) {
				r.top = math.MaxUint64 // past every snapshot's table: reported below
				continue
			}
			r.top = max(r.top, uint64(e.Obj)+1)
			if h := &r.hist[e.Obj]; e.Kind == trace.EvInput {
				h.in = append(h.in, e.Val)
			} else {
				h.out = append(h.out, e.Val)
			}
		}
	}
	if r.top > uint64(len(s.Streams)) {
		for i, e := range r.events[:s.Seq] {
			if (e.Kind == trace.EvInput || e.Kind == trace.EvOutput) && uint64(e.Obj) >= uint64(len(s.Streams)) {
				return fmt.Errorf("checkpoint: event %d touches stream %d, snapshot has %d", i, e.Obj, len(s.Streams))
			}
		}
	}
	for i := range s.Streams {
		// Capacity cut to length: an append through the snapshot can never
		// write into the array the walk keeps extending.
		st, h := &s.Streams[i], &r.hist[i]
		st.Inputs, st.Outputs = h.in[:len(h.in):len(h.in)], h.out[:len(h.out):len(h.out)]
		if len(st.Inputs) != st.InIndex {
			return fmt.Errorf("checkpoint: stream %q rebuilt %d inputs, cursor says %d", st.Name, len(st.Inputs), st.InIndex)
		}
	}
	return nil
}

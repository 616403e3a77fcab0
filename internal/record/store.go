package record

import (
	"sync"

	"debugdet/internal/checkpoint"
	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// Meta is the run identity a segment store carries: what was recorded,
// under which determinism model, and how the run ended. It is the
// information replay needs before touching any event data.
type Meta struct {
	Scenario string
	Model    Model
	Seed     int64
	Params   scenario.Params
	// Streams maps stream object IDs to names (index = ObjID), as in
	// Recording.Streams.
	Streams []string
	// SchedComplete reports whether the store's schedule covers every
	// event of the run (required for seek and segmented replay).
	SchedComplete bool
	// Failed and FailureSig are the run's terminal condition per the
	// scenario's failure specification.
	Failed     bool
	FailureSig string
	// EventCount is the total number of events the run applied —
	// including events whose segments have been evicted from disk.
	EventCount uint64
	// Interval is the checkpoint/rotation interval the store was
	// recorded with (0 when the source recording had no checkpoints).
	Interval uint64
}

// SegmentInfo describes one checkpoint-delimited segment.
type SegmentInfo struct {
	// Index is the segment's rotation number within the whole run. For a
	// store under retention the first retained segment's Index is > 0.
	Index int
	// From and To delimit the segment's event range [From, To). A
	// segment with From > 0 begins at its boundary snapshot's Seq.
	From, To uint64
	// Bytes is the encoded size of the segment (0 when unknown, e.g. for
	// an in-memory recording's store).
	Bytes int64
	// File is the spill file name, relative to the store directory
	// ("" for in-memory segments).
	File string
}

// Events returns the number of events in the segment.
func (si SegmentInfo) Events() uint64 { return si.To - si.From }

// A Recording is a segment store that retains everything: *Recording
// implements the flightrec.Store contract (the SDK's SegmentStore) with the
// methods below, so Seek, segmented replay and the debugger take a recording
// and a flight recorder's spill directory through one entry point each.

// replayPlan holds the projections of a recording's event log that replay
// consumes — segment table, recorded input source, shared feed plan. They
// are derived at most once per recording state and then shared read-only by
// every Seek, Segmented and Debugger call, so the store methods are safe for
// concurrent use.
type replayPlan struct {
	key  planKey
	segs []SegmentInfo

	inputsOnce sync.Once
	inputs     vm.InputSource

	feedsOnce sync.Once
	feeds     *checkpoint.FeedPlan
	feedsErr  error
}

// planKey identifies the recording state a replayPlan was derived from: the
// recording and the identity and length of its event and checkpoint
// slices. core and tests attach Checkpoints after construction (tests also
// clear and replace them), which the key notices; edits inside the slices
// it does not — a recording must not be mutated after its first replay.
type planKey struct {
	rec        *Recording
	full       *trace.Event
	cps        **vm.Snapshot
	nFull, nCp int
}

func keyOf(r *Recording) planKey {
	k := planKey{rec: r, nFull: len(r.Full), nCp: len(r.Checkpoints)}
	if k.nFull > 0 {
		k.full = &r.Full[0]
	}
	if k.nCp > 0 {
		k.cps = &r.Checkpoints[0]
	}
	return k
}

// planCache is a Recording's slot for its replayPlan. Capture and Load
// allocate it and nothing reassigns it, so copying a Recording by value
// shares the slot without racing with a replay that fills it.
type planCache struct {
	mu   sync.Mutex
	plan *replayPlan
}

// plan returns the recording's replay plan, the same one for every caller
// until the recording's events or checkpoints are replaced.
func (r *Recording) plan() *replayPlan {
	c := r.cache
	if c == nil { // not from Capture or Load: nowhere to keep it
		c = &planCache{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if k := keyOf(r); c.plan == nil || c.plan.key != k {
		c.plan = &replayPlan{key: k, segs: r.segments()}
	}
	return c.plan
}

// segments lays out one segment from event 0 and one from every interior
// checkpoint (one at the very end of the event stream delimits nothing),
// the last one ending with the event stream.
func (r *Recording) segments() []SegmentInfo {
	end := uint64(len(r.Full))
	segs := append(make([]SegmentInfo, 0, len(r.Checkpoints)+1), SegmentInfo{To: end})
	for _, cp := range r.Checkpoints {
		if cp.Seq > 0 && cp.Seq < end {
			segs[len(segs)-1].To = cp.Seq
			segs = append(segs, SegmentInfo{Index: len(segs), From: cp.Seq, To: end})
		}
	}
	return segs
}

// Meta implements SegmentStore: the run identity.
func (r *Recording) Meta() Meta {
	var interval uint64
	if len(r.Checkpoints) > 0 {
		interval = r.Checkpoints[0].Seq
	}
	return Meta{
		Scenario:      r.Scenario,
		Model:         r.Model,
		Seed:          r.Seed,
		Params:        r.Params,
		Streams:       r.Streams,
		SchedComplete: r.SchedComplete,
		Failed:        r.Failed,
		FailureSig:    r.FailureSig,
		// The retained horizon, not r.EventCount: replay bounds index
		// into Full, and relaxed models record fewer events than they
		// observe.
		EventCount: uint64(len(r.Full)),
		Interval:   interval,
	}
}

// Segments implements SegmentStore: one segment per checkpoint-delimited
// bound.
func (r *Recording) Segments() []SegmentInfo {
	return append([]SegmentInfo(nil), r.plan().segs...)
}

// Events implements SegmentStore; the returned slice aliases Full.
func (r *Recording) Events(i int) ([]trace.Event, error) {
	si := r.plan().segs[i]
	return r.Full[si.From:si.To], nil
}

// BestSnapshot implements SegmentStore over Checkpoints. Note that a
// checkpoint landing exactly at the end of the event stream is a valid
// snapshot even though it delimits no segment.
func (r *Recording) BestSnapshot(target uint64) (*vm.Snapshot, error) {
	return checkpoint.Best(r.Checkpoints, target), nil
}

// SnapshotSeqs implements SegmentStore.
func (r *Recording) SnapshotSeqs() []uint64 {
	seqs := make([]uint64, len(r.Checkpoints))
	for i, cp := range r.Checkpoints {
		seqs[i] = cp.Seq
	}
	return seqs
}

// Feeds implements SegmentStore by slicing the lazily built shared feed
// plan, which covers every checkpoint the events reach.
func (r *Recording) Feeds(snap *vm.Snapshot) ([][]vm.FeedEntry, error) {
	p := r.plan()
	p.feedsOnce.Do(func() {
		p.feeds, p.feedsErr = checkpoint.PlanFeeds(r.Full, r.Checkpoints)
	})
	if p.feedsErr != nil {
		return nil, p.feedsErr
	}
	return p.feeds.At(snap)
}

// SchedFrom implements SegmentStore (the Sched field has the short name);
// the returned slice aliases Sched.
func (r *Recording) SchedFrom(from uint64) ([]trace.ThreadID, error) {
	if from >= uint64(len(r.Sched)) {
		return nil, nil
	}
	return r.Sched[from:], nil
}

// Inputs implements SegmentStore: the recorded per-stream input sequences,
// over a zero base (replay beyond the recorded horizon reads zeros).
func (r *Recording) Inputs() (vm.InputSource, error) {
	p := r.plan()
	p.inputsOnce.Do(func() {
		p.inputs = &vm.MapInputs{Values: r.InputsByStream(), Base: vm.ZeroInputs}
	})
	return p.inputs, nil
}

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

// Store is the replay-side view of an in-memory recording: it implements
// the flightrec.Store contract, so the store-backed replay entry points
// subsume the monolithic ones — a recording is simply a store that retains
// everything. Its projections of the event log (segment bounds, recorded
// input source, shared feed plan) are derived at most once per recording —
// Recording.Store hands every Seek, Segmented and Debug call the same
// Store — and then shared read-only, so a Store is safe for concurrent use.
type Store struct {
	rec    *Recording
	key    storeKey
	bounds []uint64

	inputsOnce sync.Once
	inputs     vm.InputSource

	planOnce sync.Once
	plan     *checkpoint.FeedPlan
	planErr  error
}

// storeKey identifies the recording state a Store was derived from: the
// recording and the identity and length of its event and checkpoint
// slices. core and tests attach Checkpoints after construction (tests also
// clear and replace them), which the key notices; edits inside the slices
// it does not — a recording must not be mutated after its first replay.
type storeKey struct {
	rec        *Recording
	full       *trace.Event
	cps        **vm.Snapshot
	nFull, nCp int
}

func keyOf(r *Recording) storeKey {
	k := storeKey{rec: r, nFull: len(r.Full), nCp: len(r.Checkpoints)}
	if k.nFull > 0 {
		k.full = &r.Full[0]
	}
	if k.nCp > 0 {
		k.cps = &r.Checkpoints[0]
	}
	return k
}

// storeCache is a Recording's slot for its Store. Capture and Load allocate
// it and nothing reassigns it, so copying a Recording by value shares the
// slot without racing with a replay that fills it.
type storeCache struct {
	mu sync.Mutex
	st *Store
}

// Store returns the recording's replay-side view, the same one for every
// caller until the recording's events or checkpoints are replaced. The
// recording is shared, not copied.
func (r *Recording) Store() *Store {
	c := r.cache
	if c == nil { // not from Capture or Load: nowhere to keep it
		c = &storeCache{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if k := keyOf(r); c.st == nil || c.st.key != k {
		c.st = &Store{rec: r, key: k, bounds: r.SegmentBounds()}
	}
	return c.st
}

// Meta implements flightrec.Store.
func (st *Store) Meta() Meta {
	rec := st.rec
	var interval uint64
	if len(rec.Checkpoints) > 0 {
		interval = rec.Checkpoints[0].Seq
	}
	return Meta{
		Scenario:      rec.Scenario,
		Model:         rec.Model,
		Seed:          rec.Seed,
		Params:        rec.Params,
		Streams:       rec.Streams,
		SchedComplete: rec.SchedComplete,
		Failed:        rec.Failed,
		FailureSig:    rec.FailureSig,
		// The retained horizon, not rec.EventCount: replay bounds index
		// into Full, and relaxed models record fewer events than they
		// observe.
		EventCount: uint64(len(rec.Full)),
		Interval:   interval,
	}
}

// segmentEnd returns the end of segment i: the next bound, or the end of
// the event stream.
func (st *Store) segmentEnd(i int) uint64 {
	if i+1 < len(st.bounds) {
		return st.bounds[i+1]
	}
	return uint64(len(st.rec.Full))
}

// Segments implements flightrec.Store: one segment per
// checkpoint-delimited bound.
func (st *Store) Segments() []SegmentInfo {
	segs := make([]SegmentInfo, len(st.bounds))
	for i, from := range st.bounds {
		segs[i] = SegmentInfo{Index: i, From: from, To: st.segmentEnd(i)}
	}
	return segs
}

// Events implements flightrec.Store; the returned slice aliases the
// recording.
func (st *Store) Events(i int) ([]trace.Event, error) {
	return st.rec.Full[st.bounds[i]:st.segmentEnd(i)], nil
}

// BestSnapshot implements flightrec.Store over the recording's
// checkpoints. Note that a checkpoint landing exactly at the end of the
// event stream is a valid snapshot even though it delimits no segment.
func (st *Store) BestSnapshot(target uint64) (*vm.Snapshot, error) {
	return checkpoint.Best(st.rec.Checkpoints, target), nil
}

// SnapshotSeqs implements flightrec.Store.
func (st *Store) SnapshotSeqs() []uint64 {
	seqs := make([]uint64, len(st.rec.Checkpoints))
	for i, cp := range st.rec.Checkpoints {
		seqs[i] = cp.Seq
	}
	return seqs
}

// Feeds implements flightrec.Store by slicing the lazily built shared feed
// plan, falling back to a direct derivation for snapshots the plan does
// not cover (e.g. materialized mid-debug).
func (st *Store) Feeds(snap *vm.Snapshot) ([][]vm.FeedEntry, error) {
	st.planOnce.Do(func() {
		st.plan, st.planErr = checkpoint.PlanFeeds(st.rec.Full, st.rec.Checkpoints)
	})
	if st.planErr == nil {
		if feeds, err := st.plan.At(snap); err == nil {
			return feeds, nil
		}
	}
	return checkpoint.Feeds(st.rec.Full, snap.Seq, len(snap.Threads))
}

// Sched implements flightrec.Store; the returned slice aliases the
// recording.
func (st *Store) Sched(from uint64) ([]trace.ThreadID, error) {
	if from >= uint64(len(st.rec.Sched)) {
		return nil, nil
	}
	return st.rec.Sched[from:], nil
}

// Inputs implements flightrec.Store: the recorded per-stream input
// sequences, over a zero base (replay beyond the recorded horizon reads
// zeros).
func (st *Store) Inputs() (vm.InputSource, error) {
	st.inputsOnce.Do(func() {
		st.inputs = &vm.MapInputs{Values: st.rec.InputsByStream(), Base: vm.ZeroInputs}
	})
	return st.inputs, nil
}

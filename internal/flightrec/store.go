package flightrec

import (
	"fmt"

	"debugdet/internal/checkpoint"
	"debugdet/internal/record"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// Meta is the run identity a segment store carries (see record.Meta; the
// type lives beside Recording, whose Meta method returns it).
type Meta = record.Meta

// SegmentInfo describes one checkpoint-delimited segment (see
// record.SegmentInfo).
type SegmentInfo = record.SegmentInfo

// Store is the segment-store contract replay consumes: run identity, the
// retained segments and their events, the boundary snapshots with
// everything vm.Restore needs (feeds, schedule suffix, inputs). A
// *record.Recording is the store that retains everything, a *DiskStore a
// flight recorder's spill directory. Implementations must be safe for
// concurrent readers — segmented replay shares one store across workers.
type Store interface {
	// Meta returns the run identity.
	Meta() Meta
	// Segments returns the retained segments in event order. Their
	// ranges are contiguous; the last segment's To equals the retained
	// horizon (Meta().EventCount for a complete store).
	Segments() []SegmentInfo
	// Events returns the events of segment i (an index into Segments()).
	// The slice is read-only shared state: callers must not mutate it.
	Events(i int) ([]trace.Event, error)
	// BestSnapshot returns the latest boundary snapshot with Seq ≤
	// target, or nil when none qualifies (the caller replays from the
	// start). Snapshots are returned restore-ready: stream histories
	// rehydrated.
	BestSnapshot(target uint64) (*vm.Snapshot, error)
	// SnapshotSeqs lists the sequence numbers of the available boundary
	// snapshots, ascending.
	SnapshotSeqs() []uint64
	// Feeds returns the per-thread operation outcomes of the first
	// snap.Seq events — the vm.Restore feed input for a snapshot
	// obtained from this store. The returned slices are read-only.
	Feeds(snap *vm.Snapshot) ([][]vm.FeedEntry, error)
	// SchedFrom returns the schedule stream from event `from` on (nil
	// when from is at or past the end). The slice is read-only.
	SchedFrom(from uint64) ([]trace.ThreadID, error)
	// Inputs returns the recorded per-stream input source, for replays
	// to re-obtain every environment value the run consumed.
	Inputs() (vm.InputSource, error)
}

var _ Store = (*record.Recording)(nil)

// Retained returns the contiguous event range [lo, hi) covered by the
// store's segments. An empty store returns (0, 0).
func Retained(st Store) (lo, hi uint64) {
	segs := st.Segments()
	if len(segs) == 0 {
		return 0, 0
	}
	return segs[0].From, segs[len(segs)-1].To
}

// EventRange collects the recorded events in [lo, hi) from the store's
// retained segments into a fresh slice. It returns an error when the
// range is not fully retained.
func EventRange(st Store, lo, hi uint64) ([]trace.Event, error) {
	if hi < lo {
		return nil, fmt.Errorf("flightrec: bad event range [%d, %d)", lo, hi)
	}
	if lo == hi {
		return nil, nil
	}
	rlo, rhi := Retained(st)
	if lo < rlo || hi > rhi {
		return nil, fmt.Errorf("flightrec: events [%d, %d) not retained (store holds [%d, %d))", lo, hi, rlo, rhi)
	}
	out := make([]trace.Event, 0, hi-lo)
	for i, si := range st.Segments() {
		if si.To <= lo || si.From >= hi {
			continue
		}
		evs, err := st.Events(i)
		if err != nil {
			return nil, err
		}
		a, b := uint64(0), uint64(len(evs))
		if lo > si.From {
			a = lo - si.From
		}
		if hi < si.To {
			b = hi - si.From
		}
		out = append(out, evs[a:b]...)
	}
	return out, nil
}

// snapOverlay decorates a store with externally materialized snapshots —
// how the debugger retrofits checkpoints onto a checkpoint-free store
// after replaying it once with a checkpoint writer attached. Feeds come
// from one plan derived from the store's own retained events when the
// overlay is made, so the overlay only works when the store retains the
// full prefix of every overlay snapshot (true for checkpoint-free stores,
// which hold one segment from 0).
type snapOverlay struct {
	Store
	snaps []*vm.Snapshot
	plan  *checkpoint.FeedPlan
}

// WithSnapshots returns a view of st whose snapshots are snaps (in trace
// order), replacing whatever snapshots st itself offers.
func WithSnapshots(st Store, snaps []*vm.Snapshot) (Store, error) {
	var prefix uint64
	if len(snaps) > 0 {
		prefix = snaps[len(snaps)-1].Seq
	}
	events, err := EventRange(st, 0, prefix)
	if err != nil {
		return nil, err
	}
	plan, err := checkpoint.PlanFeeds(events, snaps)
	if err != nil {
		return nil, err
	}
	return &snapOverlay{Store: st, snaps: snaps, plan: plan}, nil
}

// BestSnapshot implements Store over the overlay snapshots.
func (o *snapOverlay) BestSnapshot(target uint64) (*vm.Snapshot, error) {
	return checkpoint.Best(o.snaps, target), nil
}

// SnapshotSeqs implements Store over the overlay snapshots.
func (o *snapOverlay) SnapshotSeqs() []uint64 {
	seqs := make([]uint64, len(o.snaps))
	for i, s := range o.snaps {
		seqs[i] = s.Seq
	}
	return seqs
}

// Feeds implements Store by slicing the overlay's feed plan.
func (o *snapOverlay) Feeds(snap *vm.Snapshot) ([][]vm.FeedEntry, error) {
	return o.plan.At(snap)
}

package flightrec

import (
	"fmt"
	"os"
	"path/filepath"

	"debugdet/internal/checkpoint"
	"debugdet/internal/record"
	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
	"debugdet/internal/wire"
)

// DefaultRingSegments is how many sealed segments stay in memory when
// Options.RingSegments is zero, small enough that the ring stays a few
// segments of RAM. No reader sees the ring: Record reopens the spill
// directory with Open once the run is finalized, so every seek reads its
// segments from disk.
const DefaultRingSegments = 4

// Options configures the flight recorder.
type Options struct {
	// Interval is the checkpoint/segment-rotation interval in events
	// (0 = checkpoint.DefaultInterval). Each rotation seals the current
	// segment at a boundary snapshot.
	Interval uint64
	// RingSegments is how many sealed segments stay in memory before the
	// oldest spills to disk (0 = DefaultRingSegments). Peak recorder
	// memory is O((RingSegments+2) · segment size): the ring, the
	// building segment, and the segment being encoded for spill.
	RingSegments int
	// SpillDir is the directory receiving sealed segments, the manifest
	// and the feed log. Required: restoring a boundary snapshot needs
	// the complete operation-outcome prefix of the run, which only the
	// disk-backed feed log retains once segments rotate out of memory.
	SpillDir string
	// Retention caps how many sealed segments are kept on disk; older
	// .ddseg files are deleted as newer ones spill (0 = keep all). The
	// feed log is never truncated — it is the seekability floor — so
	// disk still grows linearly in the run, with a small constant.
	Retention int
}

// Validate rejects option values that would otherwise be silently
// reinterpreted: a negative ring size would disable sealing entirely and
// a negative retention would evict every spilled segment.
func (o Options) Validate() error {
	if o.RingSegments < 0 {
		return fmt.Errorf("flightrec: Options.RingSegments must not be negative (got %d; use 0 for the default ring of %d)", o.RingSegments, DefaultRingSegments)
	}
	if o.Retention < 0 {
		return fmt.Errorf("flightrec: Options.Retention must not be negative (got %d; use 0 to keep all segments)", o.Retention)
	}
	return nil
}

// withDefaults resolves zero fields.
func (o Options) withDefaults() Options {
	if o.Interval == 0 {
		o.Interval = checkpoint.DefaultInterval
	}
	if o.RingSegments == 0 {
		o.RingSegments = DefaultRingSegments
	}
	return o
}

// Recorder is the streaming perfect-model recorder: a vm.Observer that
// rotates checkpoint-delimited segments through a bounded in-memory ring
// and spills sealed segments to the spill directory. It charges what the
// segment files hold, priced as the codecs write it: each event's
// RecordCost of its share of the building segment's event section (after
// the segment's previous event; a segment has no schedule section), and
// each boundary snapshot's standalone encoded size. Recording cost is
// kept off the virtual clock, so a flight-recorded run and a monolithic
// recording of the same (scenario, seed) share one virtual schedule. The
// feed log and manifest are bookkeeping projections of already-priced data
// and are tracked in the stats but not charged again.
//
// I/O errors inside OnEvent cannot propagate through the observer
// interface; the first one is retained and recording degrades to a no-op
// until Finalize reports it.
type Recorder struct {
	m    *vm.Machine
	o    Options
	cost *vm.CostModel
	ckpt *checkpoint.Writer

	meta Meta

	feedF *os.File
	feedW *wire.Writer

	// cur is the building segment and ring the sealed ones still in
	// memory; curB and ringB are their footprints, the bytes of their
	// boundary snapshot and event section, summed as the events arrive.
	// free is the event array of the segment spilled last, for the next
	// one to build in: a recorder in steady state allocates no event
	// storage.
	cur       *Segment
	curB      int64
	ring      []*Segment
	ringB     []int64
	free      []trace.Event
	spilled   []SegmentInfo
	evicted   int
	nextIndex int

	events   uint64
	bytes    int64
	memBytes int64
	peakMem  int64
	sealed   int

	err       error
	finished  bool
	finalized bool
}

// NewRecorder creates a flight recorder for machine m recording scenario
// identity (name, seed, params) under the perfect model. Attach the
// returned recorder to m before running; call Finalize after the run.
func NewRecorder(m *vm.Machine, name string, seed int64, params scenario.Params, o Options) (*Recorder, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o = o.withDefaults()
	if o.SpillDir == "" {
		return nil, fmt.Errorf("flightrec: Options.SpillDir is required (the feed log has no in-memory fallback)")
	}
	if err := os.MkdirAll(o.SpillDir, 0o755); err != nil {
		return nil, fmt.Errorf("flightrec: spill dir: %w", err)
	}
	f, err := os.Create(filepath.Join(o.SpillDir, feedLogName))
	if err != nil {
		return nil, fmt.Errorf("flightrec: feed log: %w", err)
	}
	r := &Recorder{
		m:    m,
		o:    o,
		cost: m.Cost(),
		meta: Meta{
			Scenario: name,
			Model:    record.Perfect,
			Seed:     seed,
			Params:   params,
			Interval: o.Interval,
		},
		feedF:     f,
		nextIndex: 1,
	}
	r.cur = &Segment{Events: r.eventBuf()}
	r.feedW = wire.NewWriterSize(f, 1<<16)
	writeFeedHeader(r.feedW)
	r.ckpt = checkpoint.NewStreamingWriter(m, o.Interval, r.rotate)
	return r, nil
}

// OnEvent implements vm.Observer: appends the event to the feed log and
// the building segment, and returns the recording cost (event bytes, plus
// the boundary snapshot's bytes when the embedded checkpoint writer
// fires, which also rotates the segment).
func (r *Recorder) OnEvent(e *trace.Event) uint64 {
	if r.err != nil || r.finished {
		return 0
	}
	writeFeedEntry(r.feedW, e)
	r.events++
	r.cur.Events = append(r.cur.Events, *e)
	var prev *trace.Event
	if n := len(r.cur.Events); n > 1 {
		prev = &r.cur.Events[n-2]
	}
	b := trace.EventSize(prev, e)
	r.bytes += int64(b)
	r.curB += int64(b)
	r.memBytes += int64(b)
	cost := r.cost.RecordCost(b)
	cost += r.ckpt.OnEvent(e)
	if r.memBytes > r.peakMem {
		r.peakMem = r.memBytes
	}
	return cost
}

// rotate is the checkpoint writer's sink: seal the building segment at
// the boundary snapshot, whose encoded size the writer measured, and open
// the next one.
func (r *Recorder) rotate(snap *vm.Snapshot, size int64) {
	if r.err != nil || r.finished {
		return
	}
	// Drop the captured stream histories before taking ownership: they
	// are projections of the event prefix and are rehydrated from the
	// feed log at open. Holding them would make ring memory proportional
	// to the whole run, not the ring. The codec never encodes them, so size
	// stands.
	for i := range snap.Streams {
		snap.Streams[i].Inputs = nil
		snap.Streams[i].Outputs = nil
	}
	r.seal(snap.Seq)
	r.cur = &Segment{
		SegmentInfo: SegmentInfo{Index: r.nextIndex, From: snap.Seq, To: snap.Seq},
		Snap:        snap,
		Events:      r.eventBuf(),
	}
	r.nextIndex++
	r.curB = size
	r.memBytes += r.curB
	if r.memBytes > r.peakMem {
		r.peakMem = r.memBytes
	}
}

// maxReservedEvents caps what eventBuf reserves, so an Interval chosen to
// mean "never rotate" costs nothing up front; a longer segment grows.
const maxReservedEvents = 1 << 14

// eventBuf returns an empty event array for a new building segment: the
// one the last spill released, or a fresh one sized for a whole segment.
func (r *Recorder) eventBuf() []trace.Event {
	if buf := r.free; buf != nil {
		r.free = nil
		return buf
	}
	return make([]trace.Event, 0, min(r.o.Interval, maxReservedEvents))
}

// seal closes the building segment at `to`, pushes it into the ring and
// spills the ring's oldest segment if it overflows.
func (r *Recorder) seal(to uint64) {
	seg := r.cur
	seg.To = to
	if uint64(len(seg.Events)) != seg.To-seg.From {
		r.fail(fmt.Errorf("flightrec: segment [%d, %d) sealed with %d events", seg.From, seg.To, len(seg.Events)))
		return
	}
	r.ring = append(r.ring, seg)
	r.ringB = append(r.ringB, r.curB)
	r.curB = 0
	r.sealed++
	for len(r.ring) > r.o.RingSegments {
		r.spillOldest()
	}
}

// spillOldest encodes the ring's oldest segment to its .ddseg file,
// applies retention, and rewrites the manifest.
func (r *Recorder) spillOldest() {
	seg, b := r.ring[0], r.ringB[0]
	r.ring = r.ring[1:]
	r.ringB = r.ringB[1:]
	if err := r.spill(seg); err != nil {
		r.fail(err)
		return
	}
	r.memBytes -= b
	r.free = seg.Events[:0]
	r.trimRetention()
	if err := r.writeManifest(); err != nil {
		r.fail(err)
	}
}

// spill encodes one sealed segment to disk and appends it to the spilled
// table.
func (r *Recorder) spill(seg *Segment) error {
	name := fmt.Sprintf("seg-%06d.ddseg", seg.Index)
	path := filepath.Join(r.o.SpillDir, name)
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("flightrec: spill %s: %w", name, err)
	}
	n, err := EncodeSegment(f, seg)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("flightrec: spill %s: %w", name, err)
	}
	seg.Bytes = n
	seg.File = name
	r.spilled = append(r.spilled, seg.SegmentInfo)
	return nil
}

// trimRetention deletes the oldest spilled segments beyond the cap.
func (r *Recorder) trimRetention() {
	if r.o.Retention <= 0 {
		return
	}
	for len(r.spilled) > r.o.Retention {
		old := r.spilled[0]
		r.spilled = r.spilled[1:]
		r.evicted++
		if err := os.Remove(filepath.Join(r.o.SpillDir, old.File)); err != nil {
			r.fail(fmt.Errorf("flightrec: evict %s: %w", old.File, err))
			return
		}
	}
}

// OnFinish implements vm.FinishObserver: seal the final partial segment,
// spill the whole ring, flush the feed log and write the manifest. The
// terminal condition is stamped later by Finalize, once the scenario's
// failure spec has inspected the finished run.
func (r *Recorder) OnFinish(vm.Outcome) {
	if r.finished {
		return
	}
	r.finished = true
	if r.err != nil {
		return
	}
	if len(r.cur.Events) > 0 || (len(r.ring) == 0 && len(r.spilled) == 0) {
		r.seal(r.cur.From + uint64(len(r.cur.Events)))
	}
	for len(r.ring) > 0 {
		r.spillOldest()
	}
	if _, err := r.feedW.Finish(); err != nil {
		r.fail(fmt.Errorf("flightrec: feed log: %w", err))
		return
	}
	if err := r.writeManifest(); err != nil {
		r.fail(err)
	}
}

// Finalize stamps the run's terminal condition (from the scenario's
// failure spec) into the manifest, closes the feed log, and reports the
// first I/O error the recorder swallowed during the run, if any. It must
// be called after the machine finished.
func (r *Recorder) Finalize(failed bool, sig string) error {
	if !r.finished {
		return fmt.Errorf("flightrec: Finalize before the machine finished")
	}
	if r.finalized {
		return r.err
	}
	r.finalized = true
	if r.feedF != nil {
		if _, err := r.feedW.Finish(); err != nil && r.err == nil {
			r.err = fmt.Errorf("flightrec: feed log: %w", err)
		}
		if err := r.feedF.Close(); err != nil && r.err == nil {
			r.err = fmt.Errorf("flightrec: feed log: %w", err)
		}
		r.feedF = nil
	}
	if r.err != nil {
		return r.err
	}
	r.meta.Failed = failed
	r.meta.FailureSig = sig
	if err := r.writeManifestFinal(true); err != nil {
		r.fail(err)
	}
	return r.err
}

// fail retains the first error; the recorder is inert afterwards.
func (r *Recorder) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// writeManifest rewrites the manifest mid-run (finalized flag off).
func (r *Recorder) writeManifest() error { return r.writeManifestFinal(false) }

// writeManifestFinal rewrites the manifest atomically (temp + rename).
func (r *Recorder) writeManifestFinal(final bool) error {
	meta := r.meta
	meta.EventCount = r.events
	meta.Streams = r.m.StreamNames()
	man := &manifest{
		Meta:      meta,
		Finalized: final,
		FeedCount: r.events,
		FeedBytes: r.feedW.Written(),
		Segments:  r.spilled,
	}
	path := filepath.Join(r.o.SpillDir, manifestName)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("flightrec: manifest: %w", err)
	}
	err = encodeManifest(f, man)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("flightrec: manifest: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("flightrec: manifest: %w", err)
	}
	return nil
}

// Spill-directory file names.
const (
	feedLogName  = "feeds.ddfl"
	manifestName = "manifest.ddmf"
)

package flightrec

import (
	"debugdet/internal/scenario"
	"debugdet/internal/vm"
)

// RecordResult is the outcome of one flight-recorded run: the opened
// disk-backed store plus the recorder's accounting. Unlike a monolithic
// Recording, the run's data lives in the spill directory; the result
// carries only bounded state.
type RecordResult struct {
	// Store is the spill directory, opened for replay.
	Store *DiskStore
	// View is the finished run (no oracle trace: streaming recording
	// runs with trace collection off, that is the point).
	View *scenario.RunView
	// Events is the total number of events recorded.
	Events uint64
	// LogBytes is the recorded event volume: the bytes of the segments'
	// event sections, less their counts, which the recorder charged.
	LogBytes int64
	// CheckpointBytes is the encoded volume of the boundary snapshots.
	CheckpointBytes int64
	// FeedBytes is the feed log's on-disk size.
	FeedBytes int64
	// PeakMemBytes is the recorder's in-memory high-water mark — the
	// measured O(ring) bound.
	PeakMemBytes int64
	// Segments, Spilled and Evicted count the sealed segments, how many
	// reached disk, and how many retention deleted again.
	Segments, Spilled, Evicted int
	// Failed and FailureSig are the run's terminal condition.
	Failed     bool
	FailureSig string
}

// Record runs one execution of s under the perfect determinism model with
// the flight recorder attached, then finalizes and reopens the spill
// directory. Trace collection is disabled — the event stream goes to the
// segment ring and feed log instead of an unbounded in-memory log — so
// the run's memory is O(ring) regardless of length.
func Record(s *scenario.Scenario, seed int64, params scenario.Params, o Options) (*RecordResult, error) {
	var rec *Recorder
	var err error
	m := s.Start(scenario.ExecOptions{Seed: seed, Params: params, DisableTrace: true,
		ObserverFactory: func(m *vm.Machine) []vm.Observer {
			if rec, err = NewRecorder(m, s.Name, seed, s.DefaultParams.Clone(params), o); err != nil {
				return nil
			}
			return []vm.Observer{rec}
		}})
	if err != nil {
		vm.End(m) // releases the started main thread
		return nil, err
	}
	m.Continue(0)
	view := &scenario.RunView{Machine: m, Result: m.Finish()}
	failed, sig := s.CheckFailure(view)
	if err := rec.Finalize(failed, sig); err != nil {
		return nil, err
	}
	store, err := Open(o.SpillDir)
	if err != nil {
		return nil, err
	}
	return &RecordResult{
		Store:           store,
		View:            view,
		Events:          rec.events,
		LogBytes:        rec.bytes,
		CheckpointBytes: rec.ckpt.Bytes(),
		FeedBytes:       rec.feedW.Written(),
		PeakMemBytes:    rec.peakMem,
		Segments:        rec.sealed,
		Spilled:         len(rec.spilled) + rec.evicted,
		Evicted:         rec.evicted,
		Failed:          failed,
		FailureSig:      sig,
	}, nil
}

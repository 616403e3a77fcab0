package replay

import (
	"fmt"
	"slices"

	"debugdet/internal/checkpoint"
	"debugdet/internal/flightrec"
	"debugdet/internal/record"
	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// Debugger is an interactive time-travel session over one recording or
// flight-recorder store: a cursor into the recorded execution that can
// step forward, seek to an arbitrary event, step backward (seek
// re-executes from the nearest checkpoint, so "back" is cheap), and
// inspect the machine state at the cursor — threads, cells, locks,
// channels, streams.
//
// Stores that carry boundary snapshots use them directly; stores without
// (older files, or runs recorded with checkpointing off) get in-memory
// checkpoints materialized by one initial full replay, so interactive
// navigation is fast either way. Only perfect-model sources are
// debuggable: time travel needs the complete event stream.
//
// A Debugger is not safe for concurrent use. Close it to release the
// current replay machine.
type Debugger struct {
	s  *scenario.Scenario
	st flightrec.Store
	o  Options

	cpSeqs []uint64
	sess   *SeekSession
	end    uint64
}

// DebugOptions configures a debug session.
type DebugOptions struct {
	// Interval is the event interval for materializing checkpoints when
	// the recording has none (0 = checkpoint.DefaultInterval).
	Interval uint64
	// MaxSteps bounds each replayed execution (0 = VM default).
	MaxSteps uint64
}

// NewDebugger opens a time-travel session over a recording or any other
// segment store, positioned at event 0. Over a spill directory under
// retention the cursor still spans the whole execution — positions before
// the retained tail replay from the start via the feed log; Event/Events
// return data only inside the retained range.
func NewDebugger(s *scenario.Scenario, st flightrec.Store, o DebugOptions) (*Debugger, error) {
	meta := st.Meta()
	if meta.Model != record.Perfect {
		return nil, ErrSeekUnsupported
	}
	d := &Debugger{
		s:   s,
		st:  st,
		o:   Options{MaxSteps: o.MaxSteps},
		end: meta.EventCount,
	}
	if len(st.SnapshotSeqs()) == 0 {
		// Materialize checkpoints with one full replay: attach a writer
		// to a replay machine and drive it to completion, then overlay
		// the snapshots on the store.
		eo, err := replayExec(st, meta, d.o, 0)
		if err != nil {
			return nil, err
		}
		var w *checkpoint.Writer
		eo.ObserverFactory = func(m *vm.Machine) []vm.Observer {
			w = checkpoint.NewWriter(m, o.Interval)
			return []vm.Observer{w}
		}
		if res := s.Exec(eo).Result; res.Outcome == vm.OutcomeDiverged {
			return nil, fmt.Errorf("replay: debug: recording diverges at %d", res.DivergedAt)
		}
		if d.st, err = flightrec.WithSnapshots(st, w.Snapshots()); err != nil {
			return nil, err
		}
	}
	d.cpSeqs = d.st.SnapshotSeqs()
	if err := d.SeekTo(0); err != nil {
		return nil, err
	}
	return d, nil
}

// Pos returns the cursor: events applied so far.
func (d *Debugger) Pos() uint64 { return d.sess.Pos() }

// Len returns the recording's event count.
func (d *Debugger) Len() uint64 { return d.end }

// Done reports whether the cursor is at the end of the execution.
func (d *Debugger) Done() bool { return d.Pos() >= d.end || d.sess.Done() }

// Machine exposes the paused replay machine at the cursor for state
// inspection (cells, channels, threads, stream names).
func (d *Debugger) Machine() *vm.Machine { return d.sess.Machine }

// Step advances the cursor by n events (clamped to the end of the
// recording).
func (d *Debugger) Step(n uint64) error {
	if n == 0 {
		return nil
	}
	return d.SeekTo(d.Pos() + n)
}

// Back moves the cursor n events backward (clamped to 0), re-executing
// from the nearest checkpoint.
func (d *Debugger) Back(n uint64) error {
	pos := d.Pos()
	if n > pos {
		n = pos
	}
	return d.SeekTo(pos - n)
}

// SeekTo positions the cursor at the given event. Seeking backward
// replaces the replay machine (restoring from the nearest checkpoint);
// seeking forward advances the current one — unless a checkpoint lies
// between the cursor and the target, in which case restoring it is
// cheaper than replaying the distance.
func (d *Debugger) SeekTo(target uint64) error {
	if target > d.end {
		target = d.end
	}
	if d.sess != nil && target >= d.sess.Pos() {
		pos := d.sess.Pos()
		between := func(cp uint64) bool { return pos < cp && cp <= target }
		if !slices.ContainsFunc(d.cpSeqs, between) {
			d.sess.Continue(target)
			return nil
		}
	}
	if d.sess != nil {
		d.sess.Close()
		d.sess = nil
	}
	sess, err := Seek(d.s, d.st, target, d.o)
	if err != nil {
		return err
	}
	d.sess = sess
	return nil
}

// Event returns the recorded event at the cursor (the next event to
// execute), or false at the end of the execution or outside the store's
// retained range.
func (d *Debugger) Event() (trace.Event, bool) {
	pos := d.Pos()
	if pos >= d.end {
		return trace.Event{}, false
	}
	evs, err := flightrec.EventRange(d.st, pos, pos+1)
	if err != nil || len(evs) != 1 {
		return trace.Event{}, false
	}
	return evs[0], true
}

// Events returns the recorded events in [lo, hi), clamped to the store's
// retained range.
func (d *Debugger) Events(lo, hi uint64) []trace.Event {
	rlo, rhi := flightrec.Retained(d.st)
	if lo < rlo {
		lo = rlo
	}
	if hi > rhi {
		hi = rhi
	}
	if lo >= hi {
		return nil
	}
	evs, err := flightrec.EventRange(d.st, lo, hi)
	if err != nil {
		return nil
	}
	return evs
}

// Checkpoints returns the checkpoint positions available to this session.
func (d *Debugger) Checkpoints() []uint64 {
	return append([]uint64(nil), d.cpSeqs...)
}

// Close releases the session's replay machine.
func (d *Debugger) Close() {
	if d.sess != nil {
		d.sess.Close()
		d.sess = nil
	}
}

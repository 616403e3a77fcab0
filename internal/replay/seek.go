package replay

import (
	"errors"
	"fmt"

	"debugdet/internal/flightrec"
	"debugdet/internal/record"
	"debugdet/internal/scenario"
	"debugdet/internal/vm"
)

// Checkpointed seek (DESIGN.md §5): position a replay at an arbitrary
// event of a recording without re-executing the whole prefix. The nearest
// checkpoint at or before the target is restored (vm.Restore: per-thread
// feed replay plus state install — no scheduling), and only the remainder
// — at most one checkpoint interval — is replayed under the forced
// schedule. The suffix trace a seeked replay produces is bit-identical to
// the corresponding slice of a full sequential replay; the seek
// equivalence tests pin that for every corpus scenario.
//
// Seek operates over the flightrec.Store interface, so it works the same
// on an in-memory recording (a *record.Recording is a store) and on a
// flight recorder's spill directory (flightrec.Open).

// ErrSeekUnsupported reports a recording that checkpointed seek cannot
// operate on: seek needs every event, its thread and its value, which only
// perfect-determinism recordings persist.
var ErrSeekUnsupported = errors.New("replay: seek requires a perfect recording")

// SeekSession is a replay positioned part-way through a recording. The
// underlying machine is paused and inspectable (threads, cells, channels,
// streams); Continue steps it forward, RunToEnd completes the execution
// and Close abandons it. Sessions are not safe for concurrent use.
type SeekSession struct {
	s    *scenario.Scenario
	meta flightrec.Meta

	// Machine is the paused replay machine. Its trace collects events
	// from SuffixFrom onward.
	Machine *vm.Machine
	// SuffixFrom is the sequence number of the first event the session's
	// machine emits: the checkpoint it was restored from, or 0 when the
	// session replayed from the start.
	SuffixFrom uint64
	// FromCheckpoint reports whether a checkpoint was used.
	FromCheckpoint bool
	// ReplaySteps counts the scheduled events executed by this session so
	// far — the seek-latency denominator checkpoints shrink.
	ReplaySteps uint64

	view   *scenario.RunView
	ok     bool
	closed bool
}

// replayExec assembles the launch options every replay machine of a
// perfect store shares: the forced schedule suffix, the recorded inputs,
// and the scenario build parameterized as recorded. The schedule and the
// input map come from the store and are immutable, so every machine of one
// store shares them; a Recording derives the map once, for whichever Seek,
// Segmented or Debugger call asks first.
func replayExec(st flightrec.Store, meta flightrec.Meta, o Options, schedFrom uint64) (scenario.ExecOptions, error) {
	sched, err := st.SchedFrom(schedFrom)
	if err != nil {
		return scenario.ExecOptions{}, err
	}
	inputs, err := st.Inputs()
	if err != nil {
		return scenario.ExecOptions{}, err
	}
	return scenario.ExecOptions{
		Seed:      meta.Seed,
		Params:    meta.Params,
		Scheduler: vm.NewReplayScheduler(sched),
		Inputs:    inputs,
		MaxSteps:  o.MaxSteps,
		RelaxTime: true,
	}, nil
}

// Seek opens a session positioned at target: the execution state is that
// of the recorded run after target events, reached from the nearest
// checkpoint at or before target. A store without a usable checkpoint
// (none captured, or none early enough) falls back to replaying from the
// start — same session, full-prefix cost. Targets beyond the end of the
// recording position at the end. For a spill directory under retention,
// any target at or past the first retained boundary snapshot restores as
// usual; earlier targets take the fallback, which the store's feed log
// always supports.
func Seek(s *scenario.Scenario, st flightrec.Store, target uint64, o Options) (*SeekSession, error) {
	meta := st.Meta()
	if meta.Model != record.Perfect {
		return nil, ErrSeekUnsupported
	}
	sess := &SeekSession{s: s, meta: meta}
	cp, err := st.BestSnapshot(target)
	if err != nil {
		return nil, err
	}
	var schedPos uint64
	if cp != nil {
		schedPos = cp.SchedPos
	}
	eo, err := replayExec(st, meta, o, schedPos)
	if err != nil {
		return nil, err
	}
	if cp == nil {
		sess.Machine = s.Start(eo)
	} else {
		feeds, err := st.Feeds(cp)
		if err != nil {
			return nil, err
		}
		if sess.Machine, err = s.Restore(eo, cp, feeds); err != nil {
			return nil, fmt.Errorf("replay: seek restore at %d: %w", cp.Seq, err)
		}
		sess.SuffixFrom, sess.FromCheckpoint = cp.Seq, true
	}
	sess.Continue(target)
	return sess, nil
}

// Pos returns the session's position: events applied so far.
func (k *SeekSession) Pos() uint64 { return k.Machine.Seq() }

// Done reports whether the replayed execution has completed.
func (k *SeekSession) Done() bool { return k.Machine.Completed() }

// Continue advances the session to the given event number (no-op when the
// session is already there or past it) and reports whether the execution
// completed.
func (k *SeekSession) Continue(to uint64) bool {
	if k.view != nil {
		return true
	}
	before := k.Machine.Seq()
	if to <= before {
		return k.Machine.Completed()
	}
	done := k.Machine.Continue(to)
	k.ReplaySteps += k.Machine.Seq() - before
	return done
}

// RunToEnd completes the replay and returns the finished view. The view's
// trace holds the suffix events from SuffixFrom onward; its outputs,
// inputs-used and final state describe the whole execution (prefix state
// came from the checkpoint). ok reports the replay's acceptance condition:
// no divergence, and the recording's failure identity reproduced.
func (k *SeekSession) RunToEnd() (view *scenario.RunView, ok bool) {
	if k.view != nil {
		return k.view, k.ok
	}
	if !k.closed {
		before := k.Machine.Seq()
		k.Machine.Continue(0)
		k.ReplaySteps += k.Machine.Seq() - before
	}
	res := k.Machine.Finish()
	k.view = &scenario.RunView{Machine: k.Machine, Result: res, Trace: res.Trace}
	k.ok = !k.closed && matchesTerminal(k.s, k.meta.Failed, k.meta.FailureSig, k.view)
	return k.view, k.ok
}

// Close abandons the session, releasing the machine's threads; it builds
// no view. It is safe to call after RunToEnd (a no-op) and must be called
// otherwise. RunToEnd after Close returns the abandoned run's view, never
// accepted: an abandoned replay reproduces nothing.
func (k *SeekSession) Close() {
	if k.view == nil {
		k.closed = true
		vm.End(k.Machine)
	}
}

package replay

import (
	"context"
	"fmt"

	"debugdet/internal/flightrec"
	"debugdet/internal/par"
	"debugdet/internal/record"
	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// Segmented parallel replay (DESIGN.md §5): the store's checkpoints split
// the trace into segments, and the segments into one contiguous chunk per
// worker. Each worker restores the snapshot that opens its chunk — the
// only O(prefix) step — and replays through the chunk's interior
// boundaries on that one machine. The result obeys the worker contract
// (DESIGN.md §0): the stitched trace, the final state and the validation
// verdict are deep-equal for every worker count, because chunks share
// nothing mutable, a machine crossing a boundary adopts the boundary
// snapshot's counters (so it is indistinguishable from one restored there)
// and the stitching and the validation against the recorded events are
// positional.

// SegmentedResult is a finished segmented replay.
type SegmentedResult struct {
	// View is the reconstructed execution: the final segment's machine
	// and result, carrying the full stitched trace.
	View *scenario.RunView
	// Ok reports whether every segment's replayed events matched the
	// recording bit-for-bit and the terminal identity reproduced.
	Ok bool
	// Segments is how many trace segments were replayed.
	Segments int
	// Mismatch is the sequence number of the first replayed event that
	// differed from the recording, or the point where a replay that
	// reproduced every recorded event diverged (-1 when neither).
	Mismatch int64
	// WorkSteps is the total events executed across all segments —
	// the same as a sequential replay; the win is wall-clock.
	WorkSteps uint64
	// Restores is how many snapshots this call restored: one per worker
	// that had segments to replay, less one when the store still retains
	// event 0 (the first chunk starts a fresh machine). It is the one
	// field that depends on Options.Workers, and the cost that does: a
	// restore re-executes its snapshot's whole prefix as feed replay.
	Restores int
	// Note describes how the replay was obtained.
	Note string
}

// chunk is one worker's share of a segmented replay: a contiguous run of
// segments replayed on one machine.
type chunk struct {
	// pieces holds the traces of the chunk's machines in order: one,
	// unless a replay stopped short of a boundary and the next segment had
	// to start from its own snapshot.
	pieces   [][]trace.Event
	restores int
	// view and ok are the finished replay, for the chunk that holds the
	// final segment.
	view *scenario.RunView
	ok   bool
	err  error
}

// Segmented validates a perfect recording or any other segment store by
// replaying its checkpoint segments across o.Workers workers (0 =
// GOMAXPROCS, 1 = sequential), each taking one contiguous run of segments.
// A store without checkpoints degenerates to one segment — a sequential
// validated replay. Only perfect stores are supported (ErrSeekUnsupported
// otherwise): segmentation needs the complete event stream both to restore
// from and to validate against. For a flight recorder's spill directory it
// replays and validates the retained tail: the first retained segment
// restores from its boundary snapshot (or starts a fresh machine, when
// segment 0 is still retained) and the last one runs to the end of the
// execution.
//
// What it verifies is the event stream: every retained event is executed
// and compared, whatever the worker count. Which snapshots it restores
// depends on the worker count (SegmentedResult.Restores); that each
// snapshot restores is the seek equivalence tests' contract, not this
// call's.
func Segmented(s *scenario.Scenario, st flightrec.Store, o Options) (*SegmentedResult, error) {
	meta := st.Meta()
	if meta.Model != record.Perfect {
		return nil, ErrSeekUnsupported
	}
	infos := st.Segments()
	n := len(infos)
	if n == 0 {
		return nil, fmt.Errorf("replay: segmented: store retains no segments")
	}
	ctx := o.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	// One contiguous chunk of segments per worker. Equal segment counts,
	// not equal event counts: segments are one checkpoint interval each,
	// except the last.
	workers := par.Workers(o.Workers, n)
	bound := func(c int) int { return c * n / workers }

	// runChunk replays segments [bound(ci), bound(ci+1)).
	runChunk := func(ctx context.Context, ci int) (c chunk) {
		var sess *SeekSession
		closeSession := func() {
			if sess != nil {
				c.pieces = append(c.pieces, sess.Machine.Trace().Events)
				sess.Close()
			}
		}
		defer closeSession()
		for i := bound(ci); i < bound(ci+1); i++ {
			if c.err = ctx.Err(); c.err != nil {
				return c // cancelled: stop at this boundary
			}
			from := infos[i].From
			var err error
			if sess == nil || sess.Done() || sess.Pos() != from {
				// No machine stands at this boundary — it opens the chunk,
				// or the replay stopped short of it — so the segment
				// starts from its own snapshot, as every segment does when
				// each is a chunk of its own.
				closeSession()
				if sess, err = Seek(s, st, from, o); err == nil {
					if sess.FromCheckpoint {
						c.restores++
					}
					// Reserve the rest of the chunk once: each Continue
					// below would otherwise grow the trace one interval
					// at a time.
					tr := sess.Machine.Trace()
					tr.Events = trace.Reserve(tr.Events, int(infos[bound(ci+1)-1].To-from))
				}
			} else {
				err = adoptBoundary(st, sess.Machine, from)
			}
			if err != nil {
				c.err = fmt.Errorf("segment %d at %d: %w", i, from, err)
				return c
			}
			if i+1 < n {
				sess.Continue(infos[i+1].From)
			} else {
				c.view, c.ok = sess.RunToEnd()
			}
		}
		return c
	}

	// Worker contract (DESIGN.md §0): chunks arrive in index order, so the
	// error surfaced is the lowest-index one and the stitching is positional.
	res := &SegmentedResult{Segments: n, Mismatch: -1, Note: fmt.Sprintf("segmented replay over %d checkpoints", n-1)}
	var pieces [][]trace.Event
	total := 0
	var final chunk
	done := 0
	for _, c := range par.Ordered(ctx, workers, workers, runChunk) {
		if c.err != nil {
			return nil, c.err
		}
		for _, p := range c.pieces {
			pieces = append(pieces, p)
			total += len(p)
		}
		res.Restores += c.restores
		final = c
		done++
	}
	if done < workers {
		return nil, ctx.Err()
	}
	stitched := &trace.Log{Header: final.view.Trace.Header, Sites: final.view.Trace.Sites}
	if len(pieces) == 1 {
		stitched.Events = pieces[0] // one finished machine's trace: nothing to copy
	} else {
		stitched.Events = make([]trace.Event, 0, total)
		for _, p := range pieces {
			stitched.Events = append(stitched.Events, p...)
		}
	}
	res.WorkSteps = uint64(total)
	res.Ok = final.ok
	if err := judge(res, st, infos, stitched.Events, final.view.Result); err != nil {
		return nil, err
	}

	// The final segment's machine carries the complete final state
	// (outputs and inputs accumulate across the restore); hand its view
	// out with the stitched trace substituted.
	finalRes := *final.view.Result
	finalRes.Trace = stitched
	res.View = &scenario.RunView{Machine: final.view.Machine, Result: &finalRes, Trace: stitched}
	return res, nil
}

// adoptBoundary gives a machine paused at a segment boundary the counters
// of the boundary's snapshot, so that what it emits from there on is what a
// machine restored from that snapshot would.
func adoptBoundary(st flightrec.Store, m *vm.Machine, from uint64) error {
	cp, err := st.BestSnapshot(from)
	if err != nil {
		return err
	}
	if cp == nil {
		return fmt.Errorf("replay: segmented: no boundary snapshot")
	}
	return m.AdoptCounters(cp)
}

// judge validates the stitched replay against the store and records the
// verdict in res: the first event that differs, or, when the replay
// reproduced every stored event and its final machine then diverged (the
// schedule of a recording whose events were cut short ends there), the
// divergence point, said in the note.
func judge(res *SegmentedResult, st flightrec.Store, infos []flightrec.SegmentInfo, stitched []trace.Event, final *vm.Result) error {
	mismatch, err := validateStitched(st, infos, stitched, infos[0].From)
	if err != nil {
		return err
	}
	if mismatch < 0 && final.Outcome == vm.OutcomeDiverged {
		mismatch = int64(final.DivergedAt)
		res.Note += fmt.Sprintf("; every stored event reproduced, then the replay diverged at %d", mismatch)
	}
	if mismatch >= 0 {
		res.Ok, res.Mismatch = false, mismatch
	}
	return nil
}

// validateStitched compares the stitched replay positionally against the
// store's events, segment by segment (avoiding a concatenated copy of the
// reference stream). It returns the sequence number at which the replay
// first differs from the store — a differing event, a replay that ended
// early, or one that ran past the stored horizon — or -1 when the replay
// reproduces the stored stream exactly.
func validateStitched(st flightrec.Store, infos []flightrec.SegmentInfo, stitched []trace.Event, base uint64) (int64, error) {
	pos := 0
	for i := range infos {
		evs, err := st.Events(i)
		if err != nil {
			return 0, err
		}
		for j := range evs {
			if pos >= len(stitched) {
				return int64(base) + int64(pos), nil // replay ended early
			}
			if !EventsMatch(&stitched[pos], &evs[j]) {
				return int64(stitched[pos].Seq), nil
			}
			pos++
		}
	}
	if pos < len(stitched) {
		return int64(base) + int64(pos), nil // replay ran past the horizon
	}
	return -1, nil
}

// EventsMatch is logical event identity: every field including the value
// payload, excluding virtual time. Time is machine bookkeeping, not part
// of the logical execution — replays run under relaxed time gates, so
// their clocks legitimately drift from the recorded run's across sleep
// gaps (see vm.Config.RelaxTime and trace.EventsEqual's ignoreTime) while
// the event sequence stays bit-identical.
func EventsMatch(a, b *trace.Event) bool {
	return a.Seq == b.Seq && a.TID == b.TID &&
		a.Kind == b.Kind && a.Site == b.Site && a.Obj == b.Obj &&
		a.Taint == b.Taint && a.Val.Equal(b.Val)
}

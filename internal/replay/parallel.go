package replay

import (
	"fmt"
	"runtime"
	"sync"

	"debugdet/internal/flightrec"
	"debugdet/internal/record"
	"debugdet/internal/scenario"
	"debugdet/internal/trace"
)

// Segmented parallel replay (DESIGN.md §5): the store's checkpoints split
// the trace into segments that replay — and validate against the recorded
// events — concurrently, each worker restoring its segment's boundary
// snapshot and replaying one interval. The result obeys a sequential
// equivalence contract like the inference and evaluation pools: the
// stitched trace, the final state and the validation verdict are
// deep-equal for every worker count, because segments share nothing
// mutable and the stitching is positional.

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
	// differed from the recording (-1 when none).
	Mismatch int64
	// WorkSteps is the total events executed across all segments —
	// the same as a sequential replay; the win is wall-clock.
	WorkSteps uint64
	// Note describes how the replay was obtained.
	Note string
}

// Segmented validates a perfect recording by replaying its checkpoint
// segments concurrently across o.Workers workers (0 = GOMAXPROCS, 1 =
// sequential). A recording without checkpoints degenerates to one segment
// — a sequential validated replay. Only perfect recordings are supported
// (ErrSeekUnsupported otherwise): segmentation needs the complete event
// stream both to restore from and to validate against.
func Segmented(s *scenario.Scenario, rec *record.Recording, o Options) (*SegmentedResult, error) {
	return SegmentedStore(s, rec.Store(), o)
}

// SegmentedStore is Segmented over a segment store. For a flight
// recorder's spill directory it replays and validates the retained tail:
// the first retained segment restores from its boundary snapshot (or
// from the start, when segment 0 is still retained) and the last one
// runs to the end of the execution.
func SegmentedStore(s *scenario.Scenario, st flightrec.Store, o Options) (*SegmentedResult, error) {
	meta := st.Meta()
	if meta.Model != record.Perfect || !meta.SchedComplete {
		return nil, ErrSeekUnsupported
	}
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	infos := st.Segments()
	n := len(infos)
	if n == 0 {
		return nil, fmt.Errorf("replay: segmented: store retains no segments")
	}

	type segment struct {
		events []trace.Event // replayed events of the segment
		view   *scenario.RunView
		ok     bool
		err    error
	}
	segs := make([]segment, n)

	runSegment := func(i int) {
		from := infos[i].From
		var to uint64 // 0 = run to completion (the final segment)
		if i+1 < n {
			to = infos[i+1].From
		}
		sess, err := SeekStore(s, st, from, o)
		if err != nil {
			segs[i].err = fmt.Errorf("segment %d at %d: %w", i, from, err)
			return
		}
		if to > 0 {
			sess.Continue(to)
			segs[i].events = append([]trace.Event(nil), sess.Machine.Trace().Events...)
			sess.Close()
			segs[i].ok = true
			return
		}
		view, ok := sess.RunToEnd()
		segs[i].events = view.Trace.Events
		segs[i].view = view
		segs[i].ok = ok
	}

	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := range segs {
			runSegment(i)
		}
	} else {
		idxCh := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			//lint:nondet-ok bounded worker pool over disjoint segments; results land in per-index slots and are joined after wg.Wait, so host scheduling is unobservable
			go func() {
				defer wg.Done()
				for i := range idxCh {
					runSegment(i)
				}
			}()
		}
		for i := range segs {
			idxCh <- i
		}
		close(idxCh)
		wg.Wait()
	}

	// Sequential-equivalence: surface the lowest-index error, stitch in
	// order, validate positionally against the stored events.
	for i := range segs {
		if segs[i].err != nil {
			return nil, segs[i].err
		}
	}
	res := &SegmentedResult{Segments: n, Mismatch: -1, Note: fmt.Sprintf("segmented replay over %d checkpoints", n-1)}
	final := segs[n-1]
	stitched := trace.NewLog(final.view.Trace.Header)
	stitched.Sites = final.view.Trace.Sites
	for i := range segs {
		res.WorkSteps += uint64(len(segs[i].events))
		stitched.Events = append(stitched.Events, segs[i].events...)
	}
	res.Ok = final.ok
	mismatch, err := validateStitched(st, infos, stitched.Events, infos[0].From)
	if err != nil {
		return nil, err
	}
	if mismatch >= 0 {
		res.Ok = false
		res.Mismatch = mismatch
	}

	// The final segment's machine carries the complete final state
	// (outputs and inputs accumulate across the restore); hand its view
	// out with the stitched trace substituted.
	finalRes := *final.view.Result
	finalRes.Trace = stitched
	res.View = &scenario.RunView{Machine: final.view.Machine, Result: &finalRes, Trace: stitched}
	return res, nil
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

package checkpoint

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// A run's operation records — a recording's events, or a spill directory's
// feed log — become vm.Restore's inputs through two folds: the feed fold
// (FeedPlan) and the stream fold (StreamFold). Both take the records in
// event order and keep their running counts at each boundary they reach,
// so a boundary's inputs are prefixes of shared arrays, never copies.
// Feeds, PlanFeeds and RehydrateStreams drive them over a []trace.Event;
// flightrec.DiskStore drives them record by record over its feed log.

// FeedEntryOf is the one rule turning an operation record into the outcome
// feed replay hands back to the thread that performed the operation.
func FeedEntryOf(kind trace.EventKind, obj trace.ObjID, val trace.Value, taint trace.Taint) vm.FeedEntry {
	fe := vm.FeedEntry{Kind: kind, OK: true}
	//lint:exhaustive-default kinds without replay payloads need no feed fields; the zero FeedEntry is correct for them
	switch kind {
	case trace.EvLoad, trace.EvRecv, trace.EvInput, trace.EvDiskRead:
		// The taint is the provenance of the value read: the operation's
		// contribution to the thread's taint register.
		fe.Val, fe.Taint = val, taint
	case trace.EvStore, trace.EvDiskWrite, trace.EvDiskFsync,
		trace.EvDiskBarrier, trace.EvDiskCrash:
		// Disk events carry the operation's result as their value, the
		// invariant memory events obey.
		fe.Val = val
	case trace.EvSpawn:
		fe.Val = trace.Int(int64(obj)) // the child thread ID
	case trace.EvYield:
		// Failed try-sends/try-receives and expired timeouts: the second
		// result is false. Plain yields ignore the outcome.
		fe.OK = false
	}
	return fe
}

// tally is what both folds keep: the records taken, the boundaries
// (ascending) still ahead, a running count vector, and its value at each
// boundary reached.
type tally struct {
	n     uint64
	todo  []uint64
	count []int
	marks map[uint64][]int
}

func newTally(bounds []uint64, width int) tally {
	return tally{todo: bounds, count: make([]int, width), marks: make(map[uint64][]int, len(bounds))}
}

// mark keeps the count if a boundary lies at the current record. A
// boundary left behind (a table out of order) is dropped unmarked.
func (t *tally) mark() {
	hit := false
	for len(t.todo) > 0 && t.todo[0] <= t.n {
		hit = hit || t.todo[0] == t.n
		t.todo = t.todo[1:]
	}
	if hit {
		t.marks[t.n] = slices.Clone(t.count)
	}
}

// prefix is s[:n:n], or nil for n = 0 as in a capture taken before the
// first element.
func prefix[T any](s []T, n int) []T {
	if n == 0 {
		return nil
	}
	return s[:n:n]
}

// MaxFeedRecords is the most records a FeedPlan folds: Carve indexes them
// with int32s. Callers refuse a longer run before reserving anything.
const MaxFeedRecords = math.MaxInt32

// FeedPlan is the feed fold: every thread's feed, a run of one array, and
// at each boundary reached the number of each thread's records before it.
// Count every record's thread, then hand Carve the records' entries and
// threads in record order; Carve reorders the entries in place, so the
// feeds are that array and no copy of it. The plan is then read-only and
// safe for concurrent use.
type FeedPlan struct {
	tally                  // count: records per thread
	full  [][]vm.FeedEntry // by thread, from Carve on
}

// NewFeedPlan returns an empty feed fold marking bounds (ascending).
func NewFeedPlan(bounds []uint64) *FeedPlan {
	return &FeedPlan{tally: newTally(bounds, 0)}
}

// Count takes the next record's thread, which the caller has bounded.
func (p *FeedPlan) Count(tid trace.ThreadID) {
	p.mark()
	for int(tid) >= len(p.count) {
		p.count = append(p.count, 0)
	}
	p.count[tid]++
	p.n++
}

// Carve ends the count, marking a boundary at its end, and makes every
// thread's feed a capacity-limited run of entries: the counted records'
// entries and threads, in record order. It sorts entries by thread in
// place, stably, and the plan keeps them; the caller must not write them
// again.
//
// Carve panics on a caller's bug, never on store input. Both callers,
// planEvents and flightrec's DiskStore.scanFeeds, append one entry and
// one thread for each Count in the same loop, and both refuse more than
// MaxFeedRecords records before reserving anything. A spill directory
// whose manifest miscounts its feed log is ErrCorrupt before Carve runs
// (flightrec's TestHostileFeedLog).
func (p *FeedPlan) Carve(entries []vm.FeedEntry, tids []trace.ThreadID) {
	p.mark()
	if uint64(len(entries)) != p.n || uint64(len(tids)) != p.n || p.n > MaxFeedRecords {
		panic(fmt.Sprintf("checkpoint: Carve of %d entries and %d thread IDs after counting %d records", len(entries), len(tids), p.n))
	}
	// An entry's destination is its thread's offset plus its rank within
	// the thread.
	p.full = make([][]vm.FeedEntry, len(p.count))
	next, off := make([]int32, len(p.count)), 0
	for tid, n := range p.count {
		p.full[tid], next[tid] = entries[off:off+n:off+n], int32(off)
		off += n
	}
	dest := make([]int32, len(tids))
	for i, tid := range tids {
		dest[i] = next[tid]
		next[tid]++
	}
	// Walk each cycle of the permutation once, holding one entry: it goes
	// to its destination and takes up the entry there. A placed index
	// points at itself.
	for i := range dest {
		at := int32(i)
		if dest[i] == at {
			continue
		}
		held, j := entries[i], dest[i]
		dest[i] = at
		for j != at {
			held, entries[j] = entries[j], held
			j, dest[j] = dest[j], j
		}
		entries[i] = held
	}
}

// At slices the feeds for restoring cp out of the plan. A thread table
// missing a thread that ran before cp is a vm.ErrBadSnapshot.
func (p *FeedPlan) At(cp *vm.Snapshot) ([][]vm.FeedEntry, error) {
	return p.feeds(cp.Seq, len(cp.Threads))
}

func (p *FeedPlan) feeds(seq uint64, threads int) ([][]vm.FeedEntry, error) {
	counts, ok := p.marks[seq]
	if !ok {
		return nil, fmt.Errorf("checkpoint: feed plan has no boundary at %d (%d events folded)", seq, p.n)
	}
	if len(counts) > threads { // the last thread counted has run
		return nil, fmt.Errorf("checkpoint: thread %d ran before event %d, snapshot has %d threads: %w",
			len(counts)-1, seq, threads, vm.ErrBadSnapshot)
	}
	feeds := make([][]vm.FeedEntry, threads)
	for tid, n := range counts {
		feeds[tid] = prefix(p.full[tid], n)
	}
	return feeds, nil
}

// planEvents folds the events before seq, which must be a complete event
// stream on threads below threads, marking bounds.
func planEvents(events []trace.Event, seq uint64, threads int, bounds []uint64) (*FeedPlan, error) {
	evs := events[:min(seq, uint64(len(events)))]
	if len(evs) > MaxFeedRecords {
		return nil, fmt.Errorf("checkpoint: %d events to fold, a feed plan holds at most %d", len(evs), MaxFeedRecords)
	}
	p := NewFeedPlan(bounds)
	entries, tids := make([]vm.FeedEntry, len(evs)), make([]trace.ThreadID, len(evs))
	for i := range evs {
		e := &evs[i]
		if e.Seq != uint64(i) {
			return nil, fmt.Errorf("checkpoint: event %d has seq %d; prefix is not a complete event stream", i, e.Seq)
		}
		if e.TID < 0 || int(e.TID) >= threads {
			return nil, fmt.Errorf("checkpoint: event %d belongs to thread %d, snapshot has %d threads", i, e.TID, threads)
		}
		p.Count(e.TID)
		entries[i], tids[i] = FeedEntryOf(e.Kind, e.Obj, e.Val, e.Taint), e.TID
	}
	p.Carve(entries, tids)
	return p, nil
}

// Feeds derives the per-thread operation outcomes of the first seq events
// of a fully recorded trace (a perfect-model recording's Full stream): the
// input vm.Restore needs to rebuild each thread's position by feed replay.
// threads is the thread count of the snapshot being restored.
func Feeds(events []trace.Event, seq uint64, threads int) ([][]vm.FeedEntry, error) {
	p, err := planEvents(events, seq, threads, []uint64{seq})
	if err != nil {
		return nil, err
	}
	return p.feeds(seq, threads)
}

// PlanFeeds folds a recording's events into one plan covering every
// checkpoint they reach. The checkpoints must be in trace order, as
// captured — so none has more threads than the last; a table that is not
// (a tampered recording's) is an error.
func PlanFeeds(events []trace.Event, cps []*vm.Snapshot) (*FeedPlan, error) {
	seqs := make([]uint64, len(cps))
	for i, cp := range cps {
		if (i > 0 && cp.Seq < seqs[i-1]) || len(cp.Threads) > len(cps[len(cps)-1].Threads) {
			return nil, fmt.Errorf("checkpoint: snapshot at %d is out of trace order", cp.Seq)
		}
		seqs[i] = cp.Seq
	}
	if len(cps) == 0 {
		return NewFeedPlan(nil), nil
	}
	last := cps[len(cps)-1]
	return planEvents(events, last.Seq, len(last.Threads), seqs)
}

// StreamFold is the stream fold: every stream's input and output history,
// one growing array each, and at each boundary reached the length of
// each. Fill hands a snapshot capacity-limited prefixes, as a live capture
// holds (see vm.StreamSnap), so the histories are read-only; once every
// record is added the fold is safe for concurrent use.
type StreamFold struct {
	tally                  // count: len(hist[k])
	hist   [][]trace.Value // k = 2·stream for inputs, 2·stream+1 for outputs
	first  []uint64        // by stream: the first record touching it
	wild   uint64          // the first record naming a stream past the table
	wildID trace.ObjID
}

// NewStreamFold returns an empty stream fold over a table of streams
// streams, marking bounds (ascending). A record naming a stream past the
// table sizes nothing: it fails every boundary after it.
func NewStreamFold(streams int, bounds []uint64) *StreamFold {
	return &StreamFold{
		tally: newTally(bounds, 2*streams),
		hist:  make([][]trace.Value, 2*streams),
		first: slices.Repeat([]uint64{math.MaxUint64}, streams),
		wild:  math.MaxUint64,
	}
}

// Add takes the next record; an input or output extends its history.
func (f *StreamFold) Add(kind trace.EventKind, obj trace.ObjID, val *trace.Value) {
	f.mark()
	if kind == trace.EvInput || kind == trace.EvOutput {
		f.extend(kind == trace.EvOutput, obj, val)
	}
	f.n++
}

// extend appends an input, or an output, to its stream's history.
func (f *StreamFold) extend(output bool, obj trace.ObjID, val *trace.Value) {
	if obj >= trace.ObjID(len(f.first)) {
		if f.wild == math.MaxUint64 {
			f.wild, f.wildID = f.n, obj
		}
		return
	}
	f.first[obj] = min(f.first[obj], f.n)
	k := 2 * int(obj)
	if output {
		k++
	}
	f.hist[k] = append(f.hist[k], *val)
	f.count[k]++
}

// reserve sizes each history for the inputs and outputs among events, the
// records the fold will take, so that extend never grows one.
func (f *StreamFold) reserve(events []trace.Event) {
	counts := make([]int, len(f.hist))
	for i := range events {
		e := &events[i]
		if (e.Kind == trace.EvInput || e.Kind == trace.EvOutput) && e.Obj < trace.ObjID(len(f.first)) {
			k := 2 * int(e.Obj)
			if e.Kind == trace.EvOutput {
				k++
			}
			counts[k]++
		}
	}
	for k, n := range counts {
		if n > 0 {
			f.hist[k] = make([]trace.Value, 0, n)
		}
	}
}

// Inputs returns, by name, the whole input history of every stream that
// read any.
func (f *StreamFold) Inputs(names []string) map[string][]trace.Value {
	out := make(map[string][]trace.Value)
	for id, name := range names {
		if in := f.hist[2*id]; len(in) > 0 {
			out[name] = in
		}
	}
	return out
}

// Fill gives s its stream histories — the lengths marked at s.Seq, or the
// running ones while the fold stands there — and checks them against its
// input cursors. A stream table missing a stream touched before s is an
// error.
func (f *StreamFold) Fill(s *vm.Snapshot) error {
	counts, ok := f.marks[s.Seq]
	if s.Seq == f.n {
		counts, ok = f.count, true
	}
	if !ok {
		return fmt.Errorf("checkpoint: rehydrate needs %d events, recording has %d", s.Seq, f.n)
	}
	at, id := f.wild, f.wildID
	for i := len(s.Streams); i < len(f.first); i++ {
		if f.first[i] < at {
			at, id = f.first[i], trace.ObjID(i)
		}
	}
	if at < s.Seq {
		return fmt.Errorf("checkpoint: event %d touches stream %d, snapshot has %d", at, id, len(s.Streams))
	}
	for i := range s.Streams {
		st, k := &s.Streams[i], 2*i
		if k < len(counts) { // a stream past the fold's table has no history
			st.Inputs, st.Outputs = prefix(f.hist[k], counts[k]), prefix(f.hist[k+1], counts[k+1])
		}
		if len(st.Inputs) != st.InIndex {
			return fmt.Errorf("checkpoint: stream %q rebuilt %d inputs, cursor says %d", st.Name, len(st.Inputs), st.InIndex)
		}
	}
	return nil
}

// RehydrateStreams rebuilds the stream histories of decoded snapshots from
// the recording's events — the codec does not persist them, so checkpoint
// volume stays proportional to live state, not trace length — and checks
// them against the persisted input cursors. The events are folded once,
// each snapshot filled as the fold passes its Seq, so nothing is kept per
// snapshot. The snapshots may be in any order; of several malformed ones,
// the first in slice order is reported.
func RehydrateStreams(snaps []*vm.Snapshot, events []trace.Event) error {
	// One history per stream of the widest snapshot: stream IDs come
	// straight from the file and must not size anything.
	order, streams, last := make([]int, len(snaps)), 0, uint64(0)
	for i, s := range snaps {
		order[i], streams, last = i, max(streams, len(s.Streams)), max(last, s.Seq)
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(snaps[a].Seq, snaps[b].Seq) })
	f := NewStreamFold(streams, nil)
	f.reserve(events[:min(last, uint64(len(events)))])
	var firstErr error
	firstBad := len(snaps)
	for _, idx := range order {
		for f.n < min(snaps[idx].Seq, uint64(len(events))) {
			e := &events[f.n]
			f.Add(e.Kind, e.Obj, &e.Val)
		}
		if err := f.Fill(snaps[idx]); err != nil && idx < firstBad {
			firstErr, firstBad = err, idx
		}
	}
	return firstErr
}

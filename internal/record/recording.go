package record

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"debugdet/internal/checkpoint"
	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
	"debugdet/internal/wire"
)

// Recording is the persisted artifact of one recorded production run: what
// the developer has available at debug time. Depending on the model it
// ranges from a complete event log (perfect) down to just a failure
// signature (failure determinism).
//
// A Recording is plain data and may be copied, but it must not be mutated
// after its first replay call: replays share one read-only plan derived
// from it (see replayPlan), and its Checkpoints share the recorded machine's
// stream histories (see vm.StreamSnap). A perfect recording's Full is the
// recorded run's trace itself (see Capture).
type Recording struct {
	Scenario string
	Model    Model
	Seed     int64 // scheduler seed of the original run (identity only)
	Params   scenario.Params

	// Full are the fully recorded events, in global order.
	Full []trace.Event
	// Sched is the thread schedule, one entry per event of the run. Only
	// debug determinism (RCSE) keeps one, the one model whose replayer
	// forces a schedule it could not derive: a perfect recording's is the
	// threads of Full (SchedFrom), and every other model's is nil.
	Sched []trace.ThreadID

	// Failed and FailureSig describe the run's terminal condition as a
	// bug report would: the signature is produced by the scenario's
	// failure specification. Failure determinism records only this.
	Failed     bool
	FailureSig string

	// Streams maps stream object IDs to names, so replayers can resolve
	// recorded input/output events to streams before rebuilding the
	// machine. It names exactly the streams an input or output event in
	// Full references, holds "" for every other ID, and ends at the
	// highest referenced one. A restore takes its stream names from the
	// checkpoint, not from this table.
	Streams []string

	// Checkpoints are the periodic VM state snapshots captured during the
	// recorded run (Options.CheckpointInterval; perfect-model recordings
	// only), in trace order. They power replay.Seek and replay.Segmented;
	// recordings without them replay front-to-back.
	Checkpoints []*vm.Snapshot
	// CheckpointBytes is the encoded volume of the checkpoints, kept
	// separate from LogBytes so the overhead tables can attribute it. It
	// is what the file's snapshot section holds for them; Load measures
	// it there.
	CheckpointBytes int64

	// LogBytes is the recorded volume: what the file's event and
	// schedule sections hold for Full and Sched, less their counts, which
	// is what the recorder charged for them; Load measures it there.
	// Overhead is the measured runtime overhead ratio; BaseCycles and
	// TotalCycles the run's virtual times; EventCount the events observed.
	LogBytes    int64
	Overhead    float64
	BaseCycles  uint64
	TotalCycles uint64
	EventCount  uint64

	// cache holds the replay plan derived from the fields above (see
	// replayPlan), built on first use. It is not part of the recording's
	// value: comparisons of Recordings must ignore it.
	cache *planCache
}

// Capture finalizes a recording of the run the recorder observed: it
// stores the recorder's streams and the run's failure identity and
// overhead numbers, and nothing a replayer does not read: a schedule only
// when the policy keeps one, stream names only where Full references them.
// view must be the run as the model sees it — its Result charged with the
// recorder's cycles — and view.Trace the run's trace from its first event:
// the recording's Full and Sched are projected out of it, and under
// perfect determinism Full shares its array. Project is the one caller
// outside tests.
func (r *Recorder) Capture(s *scenario.Scenario, view *scenario.RunView, model Model) *Recording {
	failed, sig := s.CheckFailure(view)
	h := view.Trace.Header
	full := r.fullOf(view.Trace)
	var sched []trace.ThreadID
	if r.policy.Sched {
		sched = view.Trace.Schedule()
	}
	return &Recording{
		Scenario:    s.Name,
		Model:       model,
		Seed:        h.Seed,
		Params:      scenario.Params(h.Params).Clone(nil),
		Full:        full,
		Sched:       sched,
		Streams:     streamsOf(full, view.Machine),
		Failed:      failed,
		FailureSig:  sig,
		LogBytes:    r.Bytes(),
		Overhead:    view.Result.Overhead(),
		BaseCycles:  view.Result.BaseCycles(),
		TotalCycles: view.Result.TotalCycles(),
		EventCount:  r.events,
		cache:       &planCache{},
	}
}

// streamsOf names the streams the events' inputs and outputs reference,
// indexed by stream ID: the table a replayer resolves them against.
func streamsOf(events []trace.Event, m *vm.Machine) []string {
	var names []string
	for _, e := range events {
		if !refersToStream(e.Kind) {
			continue
		}
		if int(e.Obj) >= len(names) {
			names = append(names, make([]string, int(e.Obj)+1-len(names))...)
		}
		names[e.Obj] = m.StreamName(e.Obj)
	}
	return names
}

// refersToStream reports whether an event of kind k names a stream.
func refersToStream(k trace.EventKind) bool { return k == trace.EvInput || k == trace.EvOutput }

// StreamName resolves a stream object ID against the recorded table.
func (r *Recording) StreamName(id trace.ObjID) string {
	if int(id) < len(r.Streams) {
		return r.Streams[id]
	}
	return ""
}

// InputsByStream extracts the recorded input values per stream name, in
// recorded order. Every model records each stream as a prefix of the
// run's draws from it (all of them or none), so the i-th value is the
// stream's i-th draw: a replayer forces them by index.
func (r *Recording) InputsByStream() map[string][]trace.Value {
	return r.valuesByStream(trace.EvInput)
}

// OutputsByStream extracts the recorded output values per stream name.
func (r *Recording) OutputsByStream() map[string][]trace.Value {
	return r.valuesByStream(trace.EvOutput)
}

// valuesByStream gathers the values of the recorded events of one kind per
// stream name, in recorded order. It counts them by stream ID first, so
// each history is allocated once; IDs past the table share the last count,
// as they share the name "".
func (r *Recording) valuesByStream(kind trace.EventKind) map[string][]trace.Value {
	counts := make([]int, len(r.Streams)+1)
	for i := range r.Full {
		if e := &r.Full[i]; e.Kind == kind {
			counts[min(e.Obj, trace.ObjID(len(r.Streams)))]++
		}
	}
	out := make(map[string][]trace.Value)
	for id, n := range counts {
		if n > 0 {
			name := r.StreamName(trace.ObjID(id))
			out[name] = slices.Grow(out[name], n)
		}
	}
	for i := range r.Full {
		if e := &r.Full[i]; e.Kind == kind {
			name := r.StreamName(e.Obj)
			out[name] = append(out[name], e.Val)
		}
	}
	return out
}

// Summary renders the recording for logs and CLI output.
func (r *Recording) Summary() string {
	return fmt.Sprintf("%s/%s seed=%d events=%d full=%d sched=%d bytes=%d overhead=%.2fx failed=%v sig=%q",
		r.Scenario, r.Model, r.Seed, r.EventCount, len(r.Full), len(r.Sched),
		r.LogBytes, r.Overhead, r.Failed, r.FailureSig)
}

// The recording file format (.ddrc) is laid out in DESIGN.md "Wire
// formats". Version 1 (before checkpoints), version 2 (a nested log whose
// labels held the scalars), version 3 (every snapshot naming every thread
// and stream, and a stored checkpoint byte count), version 4 (a stored log
// byte count) and version 5 (a schedule under every model that kept one
// whole, and a flag saying so) files are refused.
const (
	recMagic   = "DDRC"
	recVersion = 6

	flagFailed = 1 << 0
)

// ErrBadRecording reports a malformed recording file.
var ErrBadRecording = errors.New("record: malformed recording")

// Save writes the recording to w. Checkpoints that rename a thread or
// stream of their predecessor fail it with an error wrapping
// checkpoint.ErrRenamed before anything is written.
func (r *Recording) Save(w io.Writer) error {
	if err := checkpoint.CheckNames(r.Checkpoints); err != nil {
		return err
	}
	ww := wire.NewWriter(w)
	ww.Magic(recMagic)
	ww.Byte(recVersion)
	ww.String(r.Scenario)
	ww.Byte(byte(r.Model))
	ww.Varint(r.Seed)
	trace.WriteParams(ww, r.Params)
	var flags byte
	if r.Failed {
		flags |= flagFailed
	}
	ww.Byte(flags)
	ww.String(r.FailureSig)
	for _, v := range []uint64{uint64(math.Round(r.Overhead * 1000)), r.BaseCycles, r.TotalCycles, r.EventCount} {
		ww.Uvarint(v)
	}
	ww.Uvarint(uint64(len(r.Streams)))
	for _, name := range r.Streams {
		ww.String(name)
	}
	trace.WriteEvents(ww, r.Full)
	trace.WriteSched(ww, r.Sched)
	checkpoint.WriteSnapshots(ww, r.Checkpoints)
	_, err := ww.Finish()
	return err
}

// Load reads a recording written by Save. Every failure wraps
// ErrBadRecording.
func Load(rd io.Reader) (*Recording, error) {
	wr := wire.NewReader(rd, ErrBadRecording)
	wr.Magic(recMagic)
	wr.Version(recVersion)
	r := &Recording{cache: &planCache{}}
	r.Scenario = wr.String()
	if r.Model = Model(wr.Byte()); int(r.Model) >= len(modelNames) {
		wr.Failf("unknown model %d", r.Model)
	}
	r.Seed = wr.Varint()
	r.Params = scenario.Params(trace.ReadParams(wr))
	flags := wr.Byte()
	if flags&^flagFailed != 0 {
		wr.Failf("unknown flags %#x", flags)
	}
	r.Failed = flags&flagFailed != 0
	r.FailureSig = wr.String()
	r.Overhead = float64(wr.Uvarint()) / 1000
	r.BaseCycles, r.TotalCycles, r.EventCount = wr.Uvarint(), wr.Uvarint(), wr.Uvarint()
	if n := wr.Count("streams", 1); n > 0 {
		r.Streams = make([]string, n)
		for i := range r.Streams {
			r.Streams[i] = wr.String()
		}
	}
	var eventBytes, schedBytes int64
	r.Full, eventBytes = trace.ReadEvents(wr)
	r.Sched, schedBytes = trace.ReadSched(wr)
	r.LogBytes = eventBytes + schedBytes
	r.Checkpoints, r.CheckpointBytes = checkpoint.ReadSnapshots(wr)
	if err := wr.Err(); err != nil {
		return nil, err
	}
	for i, e := range r.Full {
		if refersToStream(e.Kind) && r.StreamName(e.Obj) == "" {
			return nil, fmt.Errorf("%w: event %d (%s) references stream %d, which the table does not name",
				ErrBadRecording, i, e.Kind, e.Obj)
		}
	}
	// A perfect recording holds every event of the run and an RCSE one
	// the schedule of every event, as their replayers need; no other
	// model keeps a schedule.
	full, sched := uint64(len(r.Full)), uint64(len(r.Sched))
	switch {
	case r.Model == Perfect && full != r.EventCount:
		return nil, fmt.Errorf("%w: perfect recording holds %d of the run's %d events", ErrBadRecording, full, r.EventCount)
	case r.Model == DebugRCSE && sched != r.EventCount:
		return nil, fmt.Errorf("%w: %s schedule holds %d of the run's %d events", ErrBadRecording, r.Model, sched, r.EventCount)
	case r.Model != DebugRCSE && sched != 0:
		return nil, fmt.Errorf("%w: %s recording holds %d schedule entries", ErrBadRecording, r.Model, sched)
	}
	// The codec persists only the live-state portion of each snapshot;
	// the per-stream histories are projections of the event prefix and
	// are rebuilt from it here.
	if err := checkpoint.RehydrateStreams(r.Checkpoints, r.Full); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRecording, err)
	}
	return r, nil
}

package record

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

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
// recorded run's trace itself (see capture).
type Recording struct {
	Scenario string
	Model    Model
	Seed     int64 // scheduler seed of the original run (identity only)
	Params   scenario.Params

	// Full are the fully recorded events, in global order.
	Full []trace.Event
	// Sched is the schedule stream (thread per recorded decision).
	Sched []trace.ThreadID
	// SchedComplete reports whether Sched covers every event of the run,
	// i.e. whether it can drive a strict ReplayScheduler.
	SchedComplete bool

	// Failed and FailureSig describe the run's terminal condition as a
	// bug report would: the signature is produced by the scenario's
	// failure specification. Failure determinism records only this.
	Failed     bool
	FailureSig string

	// Streams maps stream object IDs to names, so replayers can resolve
	// recorded input/output events to streams before rebuilding the
	// machine.
	Streams []string

	// Checkpoints are the periodic VM state snapshots captured during the
	// recorded run (Options.CheckpointInterval; perfect-model recordings
	// only), in trace order. They power replay.Seek and replay.Segmented;
	// recordings without them replay front-to-back.
	Checkpoints []*vm.Snapshot
	// CheckpointBytes is the encoded volume of the checkpoints, kept
	// separate from LogBytes so the overhead tables can attribute it.
	CheckpointBytes int64

	// LogBytes is the recorded volume; Overhead the measured runtime
	// overhead ratio; BaseCycles/TotalCycles the run's virtual times;
	// EventCount the events observed.
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

// capture finalizes a recording after the recorded run finished: it stores
// the recorder's streams and the run's failure identity and overhead
// numbers. view.Trace must be the run's trace, collected from its first
// event: the recording's Full is projected out of it, and under perfect
// determinism shares its array.
func capture(s *scenario.Scenario, view *scenario.RunView, r *Recorder, model Model, seed int64, params scenario.Params) *Recording {
	failed, sig := s.CheckFailure(view)
	return &Recording{
		Scenario:      s.Name,
		Model:         model,
		Seed:          seed,
		Params:        params,
		Full:          r.fullOf(view.Trace),
		Sched:         r.sched,
		SchedComplete: r.schedComplete,
		Streams:       view.Machine.StreamNames(),
		Failed:        failed,
		FailureSig:    sig,
		LogBytes:      r.bytes,
		Overhead:      view.Result.Overhead(),
		BaseCycles:    view.Result.BaseCycles(),
		TotalCycles:   view.Result.TotalCycles(),
		EventCount:    r.events,
		cache:         &planCache{},
	}
}

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
	out := make(map[string][]trace.Value)
	for _, e := range r.Full {
		if e.Kind == trace.EvInput {
			name := r.StreamName(e.Obj)
			out[name] = append(out[name], e.Val)
		}
	}
	return out
}

// OutputsByStream extracts the recorded output values per stream name.
func (r *Recording) OutputsByStream() map[string][]trace.Value {
	out := make(map[string][]trace.Value)
	for _, e := range r.Full {
		if e.Kind == trace.EvOutput {
			name := r.StreamName(e.Obj)
			out[name] = append(out[name], e.Val)
		}
	}
	return out
}

// EventsByThread splits the fully recorded events per thread (the
// per-thread value logs value determinism replays against).
func (r *Recording) EventsByThread() map[trace.ThreadID][]trace.Event {
	out := make(map[trace.ThreadID][]trace.Event)
	for _, e := range r.Full {
		out[e.TID] = append(out[e.TID], e)
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
// formats". Version 1 files — written before checkpoints existed — are
// refused.
const (
	recMagic   = "DDRC"
	recVersion = 2
)

// ErrBadRecording reports a malformed recording file.
var ErrBadRecording = errors.New("record: malformed recording")

// Save writes the recording to w.
func (r *Recording) Save(w io.Writer) error {
	ww := wire.NewWriter(w)
	ww.Magic(recMagic)
	ww.Byte(recVersion)
	l := trace.NewLog(trace.Header{
		Scenario: r.Scenario,
		Model:    r.Model.String(),
		Seed:     r.Seed,
		Params:   map[string]int64(r.Params),
		Labels: map[string]string{
			"failed":        strconv.FormatBool(r.Failed),
			"failure_sig":   r.FailureSig,
			"sched_done":    strconv.FormatBool(r.SchedComplete),
			"log_bytes":     strconv.FormatInt(r.LogBytes, 10),
			"overhead_mlli": strconv.FormatInt(int64(r.Overhead*1000), 10),
			"base_cycles":   strconv.FormatUint(r.BaseCycles, 10),
			"total_cycles":  strconv.FormatUint(r.TotalCycles, 10),
			"event_count":   strconv.FormatUint(r.EventCount, 10),
			"ckpt_bytes":    strconv.FormatInt(r.CheckpointBytes, 10),
			"streams":       strings.Join(r.Streams, "\x1f"),
		},
	})
	l.Events = r.Full
	trace.WriteLog(ww, l)
	ww.Uvarint(uint64(len(r.Sched)))
	prev := int64(0)
	for _, tid := range r.Sched {
		ww.Varint(int64(tid) - prev)
		prev = int64(tid)
	}
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
	l := trace.ReadLog(wr)
	sched := make([]trace.ThreadID, wr.Count("schedule entries", 1))
	prev := int64(0)
	for i := range sched {
		prev += wr.Varint()
		sched[i] = trace.ThreadID(prev)
	}
	snaps := checkpoint.ReadSnapshots(wr)
	if err := wr.Err(); err != nil {
		return nil, err
	}
	model, err := ParseModel(l.Header.Model)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRecording, err)
	}
	lab := l.Header.Labels
	// num parses a numeric label as Save wrote it; the first malformed one
	// fails the load.
	num := func(key string) uint64 {
		v, perr := strconv.ParseUint(lab[key], 10, 64)
		if perr != nil && err == nil {
			err = fmt.Errorf("%w: label %s: %v", ErrBadRecording, key, perr)
		}
		return v
	}
	r := &Recording{
		Scenario:        l.Header.Scenario,
		Model:           model,
		Seed:            l.Header.Seed,
		Params:          scenario.Params(l.Header.Params),
		Full:            l.Events,
		Sched:           sched,
		SchedComplete:   lab["sched_done"] == "true",
		Failed:          lab["failed"] == "true",
		FailureSig:      lab["failure_sig"],
		Checkpoints:     snaps,
		CheckpointBytes: int64(num("ckpt_bytes")),
		LogBytes:        int64(num("log_bytes")),
		Overhead:        float64(num("overhead_mlli")) / 1000,
		BaseCycles:      num("base_cycles"),
		TotalCycles:     num("total_cycles"),
		EventCount:      num("event_count"),
		cache:           &planCache{},
	}
	if err != nil {
		return nil, err
	}
	if lab["streams"] != "" {
		r.Streams = strings.Split(lab["streams"], "\x1f")
	}
	// The codec persists only the live-state portion of each snapshot;
	// the per-stream histories are projections of the event prefix and
	// are rebuilt from it here.
	if err := checkpoint.RehydrateStreams(snaps, r.Full); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRecording, err)
	}
	return r, nil
}

// PolicyFactory builds a policy bound to a machine after the scenario's
// program has been constructed on it (so the policy can resolve stream and
// site identities), together with any companion observers the policy needs
// attached (a checkpoint writer, for one). Stateless policies ignore
// the machine and return no observers.
type PolicyFactory func(m *vm.Machine) (Policy, []vm.Observer)

// FactoryFor wraps a stock policy in a constant factory.
func FactoryFor(p Policy) PolicyFactory {
	return func(*vm.Machine) (Policy, []vm.Observer) { return p, nil }
}

// Record runs the scenario once under the given model's stock policy and
// captures the recording. It is the one-call entry point for the
// non-RCSE models; RCSE recording is orchestrated by the core package
// because it needs the scenario's control streams.
func Record(s *scenario.Scenario, model Model, seed int64, params scenario.Params) (*Recording, *scenario.RunView, error) {
	policy := PolicyFor(model)
	if policy == nil {
		return nil, nil, fmt.Errorf("record: model %s needs an explicit policy", model)
	}
	return RecordWithPolicy(s, model, FactoryFor(policy), seed, params)
}

// RecordWithPolicy runs the scenario once with an explicit policy factory
// (used by RCSE) and captures the recording. The factory's companion
// observers (a checkpoint writer) are attached after the recorder.
func RecordWithPolicy(s *scenario.Scenario, model Model, factory PolicyFactory, seed int64, params scenario.Params) (*Recording, *scenario.RunView, error) {
	var policy Policy
	var rec *Recorder
	view := s.Exec(scenario.ExecOptions{Seed: seed, Params: params,
		ObserverFactory: func(m *vm.Machine) []vm.Observer {
			var companions []vm.Observer
			policy, companions = factory(m)
			rec = NewRecorder(m, policy)
			return append([]vm.Observer{rec}, companions...)
		}})
	view.Trace.Header.Model = policy.Name()
	return capture(s, view, rec, model, seed, s.DefaultParams.Clone(params)), view, nil
}

package debugdet

import (
	"context"

	"debugdet/internal/core"
	"debugdet/internal/flightrec"
	"debugdet/internal/replay"
	"debugdet/internal/workload"
	"debugdet/scen"
)

// Engine is the SDK's entry point: a scenario registry plus the
// record/replay/evaluate pipeline, with one worker budget shared by every
// parallel axis (batch grids and replay-inference pools). Engines are
// cheap — each holds only its registry and defaults — and safe for
// concurrent use.
type Engine struct {
	reg          *scen.Registry
	workers      int
	replayBudget int
	builtins     bool
}

// Option configures an Engine.
type Option func(*Engine)

// WithWorkers sets the engine's worker budget: the number of batch cells
// (EvaluateBatch) or inference candidates (Evaluate, Replay,
// ExploreCauses) run concurrently. 0 (or less) means GOMAXPROCS, 1 is
// sequential. Every result is identical for every worker count.
func WithWorkers(n int) Option { return func(e *Engine) { e.workers = max(n, 0) } }

// WithReplayBudget sets the default inference budget for search-based
// replay (default 200). Options.ReplayBudget overrides it per call.
func WithReplayBudget(n int) Option { return func(e *Engine) { e.replayBudget = n } }

// WithoutBuiltins starts the engine with an empty registry instead of the
// built-in corpus — for test rigs that want full control of the catalog.
func WithoutBuiltins() Option { return func(e *Engine) { e.builtins = false } }

// New builds an engine. The registry comes pre-loaded with the built-in
// corpus — the paper's motivating examples, the §4 Hypertable case study
// and the Dynamo-style replication family, plus their fixed variants —
// unless WithoutBuiltins is given.
func New(opts ...Option) *Engine {
	e := &Engine{reg: scen.NewRegistry(), builtins: true}
	for _, o := range opts {
		o(e)
	}
	if e.builtins {
		for _, s := range workload.All() {
			e.reg.MustRegister(s)
		}
		if err := e.reg.RegisterVariants(workload.Variants()...); err != nil {
			panic(err)
		}
	}
	return e
}

// Registry returns the engine's scenario registry, for direct catalog
// manipulation; Register, ByName, Names and Scenarios are conveniences
// over it.
func (e *Engine) Registry() *scen.Registry { return e.reg }

// Register adds a user-authored scenario (and optionally its healthy
// variants) to the engine's registry. Names must not collide with
// built-ins or earlier registrations.
func (e *Engine) Register(s *Scenario, variants ...*Scenario) error {
	return e.reg.Register(s, variants...)
}

// ByName resolves a scenario or variant; unknown names get a
// nearest-match suggestion and the list of available names.
func (e *Engine) ByName(name string) (*Scenario, error) { return e.reg.ByName(name) }

// Names lists every resolvable scenario name, sorted.
func (e *Engine) Names() []string { return e.reg.Names() }

// Scenarios returns the corpus (registered scenarios minus healthy
// variants) in registration order.
func (e *Engine) Scenarios() []*Scenario { return e.reg.Scenarios() }

// fill applies the call's context and the engine defaults to the three
// knobs Options and ReplayOptions share, through pointers into the call's
// own copy of its options. The returned cleanup releases the
// merged-context plumbing and must run when the call finishes: call it as
// defer e.fill(...)() — fill runs at once, its cleanup at return.
func (e *Engine) fill(ctx context.Context, octx *context.Context, budget, workers *int) (stop func()) {
	*octx, stop = mergeCtx(ctx, *octx)
	if *budget == 0 {
		*budget = e.replayBudget
	}
	if *workers == 0 {
		*workers = e.workers
	}
	return stop
}

// mergeCtx reconciles the method's context argument with a context the
// caller may have set on the options struct (Options and ReplayOptions
// alias the internal pipeline's structs, whose Ctx field is how the
// context travels below the Engine, so a caller can set it and the Engine
// must not silently drop it): when both are meaningful, the merged context
// is canceled as soon as either is.
// The returned cleanup detaches the merged context from its parents; run
// it when the call completes or the child leaks until a parent ends.
func mergeCtx(arg, opt context.Context) (context.Context, func()) {
	noop := func() {}
	if opt == nil || opt == context.Background() {
		if arg == nil {
			return context.Background(), noop
		}
		return arg, noop
	}
	if arg == nil || arg == context.Background() {
		return opt, noop
	}
	merged, cancel := context.WithCancel(arg)
	stopAfter := context.AfterFunc(opt, cancel)
	return merged, func() {
		stopAfter()
		cancel()
	}
}

// Record runs the scenario once under the model's recorder — the
// production run — and returns the recording together with the original
// run view. DebugRCSE records the scenario's declared control streams and
// the thread schedule (§4). o.Seed selects the run (0 = scenario default).
func (e *Engine) Record(ctx context.Context, s *Scenario, model Model, o Options) (*Recording, *RunView, error) {
	defer e.fill(ctx, &o.Ctx, &o.ReplayBudget, &o.Workers)()
	rec, view, err := core.Record(s, model, o)
	return rec, view, err
}

// RecordStreaming runs the scenario once with the flight recorder
// attached — the always-on production-run mode. Instead of accumulating a
// monolithic in-memory Recording, the run is cut into checkpoint-delimited
// segments, each spilled to o.FlightRecorder.SpillDir as a .ddseg file as
// it seals, plus a feed log and manifest; recorder memory stays one
// segment no matter how long the run is. The returned result carries the reopened
// SegmentStore, which Seek, ReplaySegmented and Debug take exactly as they
// take a Recording. Streaming recording is always perfect-model.
func (e *Engine) RecordStreaming(ctx context.Context, s *Scenario, o Options) (*FlightRecording, error) {
	defer e.fill(ctx, &o.Ctx, &o.ReplayBudget, &o.Workers)()
	return core.RecordStreaming(s, o)
}

// OpenSegmentStore opens a flight recorder's spill directory for replay.
func OpenSegmentStore(dir string) (*DiskSegmentStore, error) {
	return flightrec.Open(dir)
}

// Replay reconstructs an execution from a recording under the recording's
// model semantics. Cancelling ctx aborts the inference search between
// candidate executions and returns the context error.
func (e *Engine) Replay(ctx context.Context, s *Scenario, rec *Recording, o ReplayOptions) (*ReplayResult, error) {
	defer e.fill(ctx, &o.Ctx, &o.Budget, &o.Workers)()
	res := replay.Replay(s, rec, o)
	if res.Err != nil {
		return nil, res.Err
	}
	return res, nil
}

// Seek opens a replay positioned at the target event of a recording or any
// other segment store — a *Recording is the store that retains everything,
// a flight recorder's spill directory (OpenSegmentStore) one under
// retention. The nearest checkpoint at or before the target is restored
// and only the remainder — at most one checkpoint interval — is
// re-executed under the scheduler. The restore itself rebuilds thread
// positions by feed replay of the prefix, about 34× cheaper per event than
// scheduled replay on bank and 5.7× on dynokv. A recording's replay plan
// (feed plan, input map, segment bounds) is derived by the first Seek,
// ReplaySegmented or Debug call on it and shared by every later one, so a
// recording must not be mutated once it has been replayed. Stores without
// a checkpoint at or before the target (older files, Options without
// CheckpointInterval, targets before a spill directory's retained tail)
// fall back to replaying from the start, which a spill directory's feed
// log always supports. The session must be finished with RunToEnd or
// released with Close. Seek requires a perfect-model store; see
// replay.ErrSeekUnsupported.
func (e *Engine) Seek(ctx context.Context, s *Scenario, st SegmentStore, target uint64, o ReplayOptions) (*SeekSession, error) {
	defer e.fill(ctx, &o.Ctx, &o.Budget, &o.Workers)()
	if err := o.Ctx.Err(); err != nil {
		return nil, err
	}
	return replay.Seek(s, st, target, o)
}

// SeekStore is Seek. bench/ compiles against this; ROADMAP item 1 deletes
// it.
func (e *Engine) SeekStore(ctx context.Context, s *Scenario, st SegmentStore, target uint64, o ReplayOptions) (*SeekSession, error) {
	return e.Seek(ctx, s, st, target, o)
}

// ReplaySegmented validates a perfect recording, or the retained segments
// of any other segment store, by replaying its checkpoint-delimited trace
// segments across the engine's worker budget (o.Workers overrides). Each
// worker takes one contiguous run of segments, restores the snapshot that
// opens it — the only step whose cost grows with the prefix — and replays
// through the boundaries inside it: a call restores min(workers, segments)
// snapshots, less one for the run that starts at event 0
// (SegmentedResult.Restores; over a spill directory under retention event
// 0 is gone and the first run restores too), and one worker costs what
// Replay does. Every event is executed and compared, and everything in the
// result but Restores is deep-equal for every worker count — the same
// sequential-equivalence contract as EvaluateBatch; Mismatch reports the
// first event, if any, where the replay departs from the recording. That
// each checkpoint restores is Seek's contract: only workers ≥ segments
// restores them all here. Cancelling ctx stops the replay at the next
// segment boundary and returns the context error.
func (e *Engine) ReplaySegmented(ctx context.Context, s *Scenario, st SegmentStore, o ReplayOptions) (*SegmentedResult, error) {
	defer e.fill(ctx, &o.Ctx, &o.Budget, &o.Workers)()
	return replay.Segmented(s, st, o)
}

// ReplaySegmentedStore is ReplaySegmented. bench/ compiles against this;
// ROADMAP item 1 deletes it.
func (e *Engine) ReplaySegmentedStore(ctx context.Context, s *Scenario, st SegmentStore, o ReplayOptions) (*SegmentedResult, error) {
	return e.ReplaySegmented(ctx, s, st, o)
}

// Debug opens an interactive time-travel session over a perfect-model
// recording or any other segment store: step forward, seek to any event,
// step backward, and inspect thread, cell, lock, channel and stream state
// at the cursor — the API the replaydbg debug REPL drives. Stores without
// checkpoints get in-memory ones materialized by a single full replay, so
// navigation is fast either way. The cursor spans the whole recorded
// execution; over a spill directory under retention, positions before the
// retained tail replay from the start via the feed log, and event
// inspection is available inside the retained range. Close the session to
// release its replay machine.
func (e *Engine) Debug(ctx context.Context, s *Scenario, st SegmentStore, o DebugOptions) (*DebugSession, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return replay.NewDebugger(s, st, o)
}

// Evaluate runs the full pipeline — record, replay, metrics — for one
// scenario under one model. Cancelling ctx aborts at phase boundaries and
// between inference candidates.
func (e *Engine) Evaluate(ctx context.Context, s *Scenario, model Model, o Options) (*Evaluation, error) {
	defer e.fill(ctx, &o.Ctx, &o.ReplayBudget, &o.Workers)()
	return core.Evaluate(s, model, o)
}

// ExploreCauses implements the paper's §5 extension: starting from only a
// failure signature (what failure determinism records), synthesize one
// execution per declared root cause that can explain the failure. On
// cancellation the partial exploration gathered so far is returned
// together with the context error; causes not yet searched are reported
// missing.
func (e *Engine) ExploreCauses(ctx context.Context, s *Scenario, signature string, o Options) (*CauseExploration, error) {
	defer e.fill(ctx, &o.Ctx, &o.ReplayBudget, &o.Workers)()
	ex := core.ExploreCauses(s, signature, o)
	return ex, ex.Err
}

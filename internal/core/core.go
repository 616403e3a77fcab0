// Package core orchestrates the full record → replay → evaluate pipeline:
// the paper's experimental loop. Given a scenario and a determinism model
// it produces one Evaluation — the recorded artifact, the replayed
// execution, and the §3.2 metrics (debugging fidelity, debugging
// efficiency, debugging utility) together with the recording overhead and
// log volume.
//
// For the debug-determinism model the recording policy records the
// scenario's declared control streams and the thread schedule
// (record.RCSEPolicy); there is nothing to prepare before the production
// run.
package core

import (
	"context"
	"fmt"

	"debugdet/internal/flightrec"
	"debugdet/internal/metrics"
	"debugdet/internal/record"
	"debugdet/internal/replay"
	"debugdet/internal/scenario"
	"debugdet/internal/vm"
)

// Options parameterizes one evaluation.
type Options struct {
	// Ctx cancels the evaluation at phase boundaries and between
	// candidate executions of the replay-inference pool (nil =
	// context.Background()). A canceled evaluation returns the context
	// error.
	Ctx context.Context
	// Seed identifies the production run to record.
	Seed int64
	// Params override scenario defaults.
	Params scenario.Params
	// ReplayBudget bounds inference attempts (default 200).
	ReplayBudget int
	// SearchSeed perturbs inference randomness (default 7).
	SearchSeed int64
	// ShrinkParams lets failure-determinism replay synthesize shorter
	// executions (ESD).
	ShrinkParams []scenario.Params
	// MaxSteps bounds every execution (0 = VM default).
	MaxSteps uint64
	// CheckpointInterval captures a VM state snapshot into the recording
	// every that many events, enabling checkpointed seek and segmented
	// parallel replay on the recording. Zero means off — no checkpoints
	// are captured, and seek falls back to replaying from the start.
	// Negative values are rejected with an error rather than silently
	// disabling checkpoints. Checkpoints need the complete event stream,
	// so the interval only applies to the perfect model; other models
	// ignore it. Capture work is charged to the recording overhead like
	// any other recording work.
	CheckpointInterval int64
	// Workers sets the replay-inference worker-pool size (0 =
	// GOMAXPROCS, 1 = sequential; negative rejected). The evaluation
	// result is identical for every worker count.
	Workers int
	// ForkReplay is ignored. bench/ compiles against it; ROADMAP item 1
	// deletes it.
	ForkReplay bool
	// FlightRecorder configures RecordStreaming's always-on bounded-memory
	// recording: the rotation interval, the spill directory and the
	// on-disk retention cap. Only RecordStreaming reads it; Record and
	// Evaluate build monolithic recordings and ignore it.
	FlightRecorder *flightrec.Options
}

// validate rejects option values that would otherwise be silently
// reinterpreted. The replay-facing knobs (Workers, ReplayBudget)
// delegate to replay.Options.Validate, so the SDK surface rejects the
// same domains the engine does.
func (o Options) validate() error {
	if o.CheckpointInterval < 0 {
		return fmt.Errorf("core: Options.CheckpointInterval must not be negative (got %d; use 0 to disable checkpoints)", o.CheckpointInterval)
	}
	if err := o.replayOptions().Validate(); err != nil {
		return err
	}
	if o.FlightRecorder != nil {
		if err := o.FlightRecorder.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// replayOptions assembles the replay configuration the evaluation uses.
func (o Options) replayOptions() replay.Options {
	return replay.Options{
		Ctx:          o.Ctx,
		Budget:       o.ReplayBudget,
		SearchSeed:   o.SearchSeed,
		ShrinkParams: o.ShrinkParams,
		MaxSteps:     o.MaxSteps,
		Workers:      o.Workers,
	}
}

func (o Options) withDefaults() Options {
	if o.Ctx == nil {
		o.Ctx = context.Background()
	}
	if o.ReplayBudget == 0 {
		o.ReplayBudget = 200
	}
	if o.SearchSeed == 0 {
		o.SearchSeed = 7
	}
	return o
}

// Evaluation is the complete result of one (scenario, model) cell.
type Evaluation struct {
	Scenario  string
	Model     record.Model
	Seed      int64
	Recording *record.Recording
	Orig      *scenario.RunView
	Replay    *replay.Result
	Fidelity  metrics.Fidelity
	Utility   metrics.Utility

	// Overhead and LogBytes restate the recording's production cost.
	Overhead float64
	LogBytes int64
}

// Summary renders the evaluation as one report line.
func (e *Evaluation) Summary() string {
	return fmt.Sprintf("%-18s %-10s overhead=%5.2fx bytes=%8d DF=%.3f DE=%7.3f DU=%7.3f attempts=%d",
		e.Scenario, e.Model, e.Overhead, e.LogBytes,
		e.Utility.DF, e.Utility.DE, e.Utility.DU, e.Replay.Attempts)
}

// Record executes the scenario once — the "production run" of the
// pipeline — and projects it to the model's recording (record.Project),
// returning the recording with the run as the model sees it.
func Record(s *scenario.Scenario, model record.Model, o Options) (*record.Recording, *scenario.RunView, error) {
	return (*Runs)(nil).record(s, model, o)
}

// record is Record over r's shared runs (nil executes a run of its own).
func (r *Runs) record(s *scenario.Scenario, model record.Model, o Options) (*record.Recording, *scenario.RunView, error) {
	o = o.withDefaults()
	if err := o.validate(); err != nil {
		return nil, nil, err
	}
	if o.Seed == 0 {
		o.Seed = s.DefaultSeed
	}
	if err := o.Ctx.Err(); err != nil {
		return nil, nil, err
	}
	if model != record.DebugRCSE && record.PolicyFor(model) == nil {
		return nil, nil, fmt.Errorf("core: no stock policy for %s", model)
	}
	run := r.take(s, model, o)
	rec, view := record.Project(s, run.view, run.ckpt, model, policyFor(s, model, run.view.Machine))
	return rec, view, nil
}

// policyFor builds the model's recording policy on the run's machine: the
// stock one, or RCSE's over the scenario's declared control streams.
func policyFor(s *scenario.Scenario, model record.Model, m *vm.Machine) *record.Policy {
	if model == record.DebugRCSE {
		return record.RCSEPolicy(m, s.ControlStreams)
	}
	return record.PolicyFor(model)
}

// RecordOnly is Record with an always-empty third result. bench/ compiles
// against this; ROADMAP item 1 deletes it.
func RecordOnly(s *scenario.Scenario, model record.Model, o Options) (*record.Recording, *scenario.RunView, struct{}, error) {
	rec, orig, err := Record(s, model, o)
	return rec, orig, struct{}{}, err
}

// RecordStreaming runs the scenario once with the flight recorder
// attached: an always-on, bounded-memory production run whose segments
// spill to o.FlightRecorder.SpillDir as they seal, instead of accumulating a monolithic in-memory Recording. The run is
// always a perfect-model recording — streaming needs the complete event
// stream, and the spill directory replays through the same seek, segmented
// and debug paths as a checkpointed recording.
//
// The rotation interval is o.FlightRecorder.Interval; when zero it falls
// back to o.CheckpointInterval, then to the checkpoint default.
func RecordStreaming(s *scenario.Scenario, o Options) (*flightrec.RecordResult, error) {
	o = o.withDefaults()
	if err := o.validate(); err != nil {
		return nil, err
	}
	if o.Seed == 0 {
		o.Seed = s.DefaultSeed
	}
	if err := o.Ctx.Err(); err != nil {
		return nil, err
	}
	if o.FlightRecorder == nil || o.FlightRecorder.SpillDir == "" {
		return nil, fmt.Errorf("core: streaming recording needs Options.FlightRecorder with a SpillDir")
	}
	fo := *o.FlightRecorder
	if fo.Interval == 0 && o.CheckpointInterval > 0 {
		fo.Interval = uint64(o.CheckpointInterval)
	}
	return flightrec.Record(s, o.Seed, o.Params, fo)
}

// Evaluate runs the full pipeline for one scenario under one model.
func Evaluate(s *scenario.Scenario, model record.Model, o Options) (*Evaluation, error) {
	return (*Runs)(nil).Evaluate(s, model, o)
}

// Evaluate is core.Evaluate recording from r's shared run of the cell; the
// evaluation is identical to a standalone one.
func (r *Runs) Evaluate(s *scenario.Scenario, model record.Model, o Options) (*Evaluation, error) {
	o = o.withDefaults()
	if o.Seed == 0 {
		o.Seed = s.DefaultSeed
	}

	rec, orig, err := r.record(s, model, o)
	if err != nil {
		return nil, err
	}
	if err := o.Ctx.Err(); err != nil {
		return nil, err
	}

	rep := replay.Replay(s, rec, o.replayOptions())
	if rep.Err != nil {
		return nil, rep.Err
	}
	if err := o.Ctx.Err(); err != nil {
		return nil, err
	}

	var repView *scenario.RunView
	if rep.Ok {
		repView = rep.View
	}
	fid := metrics.ComputeFidelity(s, orig, repView)
	// DE's numerator is the original's intrinsic duration; its
	// denominator is everything the tool executed to produce the replay.
	// Both are measured in events, not cycles: the virtual clock jumps
	// over idle waits, which replays legitimately skip, and counting
	// those jumps would inflate DE for no analysis work.
	de := metrics.Efficiency(orig.Result.Steps, rep.WorkSteps)
	if repView == nil {
		de = 0
	}

	return &Evaluation{
		Scenario:  s.Name,
		Model:     model,
		Seed:      o.Seed,
		Recording: rec,
		Orig:      orig,
		Replay:    rep,
		Fidelity:  fid,
		Utility:   metrics.ComputeUtility(fid, de),
		Overhead:  rec.Overhead,
		LogBytes:  rec.LogBytes,
	}, nil
}

// PrepareRCSE returns the factory of the scenario's RCSE policy; the
// error is always nil. bench/ compiles against this; ROADMAP item 1
// deletes it.
func PrepareRCSE(s *scenario.Scenario, _ Options) (func(*vm.Machine) *record.Policy, error) {
	return func(m *vm.Machine) *record.Policy { return policyFor(s, record.DebugRCSE, m) }, nil
}

package core

import (
	"sync"
	"sync/atomic"

	"debugdet/internal/checkpoint"
	"debugdet/internal/record"
	"debugdet/internal/scenario"
)

// Runs shares production runs between the cells of one evaluation grid.
// Every model's recording is a projection of one plain run of the
// scenario (record.Project), so cells that differ only in model, replay
// options or search settings need that run once: the first cell to reach
// it executes it, the others project from it, and the cells' evaluations
// are identical to standalone ones. A run is dropped as soon as the last
// cell that announced it (Want) has taken it, so a grid holds a run only
// while some cell has yet to start from it.
//
// A Runs serves one grid call; it is safe for concurrent use. A nil *Runs
// shares nothing: Record and Evaluate are its methods on nil.
type Runs struct {
	mu   sync.Mutex
	runs map[runKey]*sharedRun
}

// runKey names a production run by everything its execution depends on.
// The checkpoint interval is part of it because the checkpoint writer is
// a live observer whose capture cost the run charges; only perfect cells
// attach one (see Options.CheckpointInterval).
type runKey struct {
	scenario string
	seed     int64
	params   string
	maxSteps uint64
	interval uint64
}

// production is one finished production run and its checkpoint writer
// (nil when the run captured none).
type production struct {
	view *scenario.RunView
	ckpt *checkpoint.Writer
}

type sharedRun struct {
	wants int // cells announced but not yet served
	once  sync.Once
	run   production
}

// executions counts production runs executed, for tests.
var executions atomic.Int64

// NewRuns returns an empty run cache for one grid.
func NewRuns() *Runs { return &Runs{runs: make(map[runKey]*sharedRun)} }

// Want announces a cell that will call Evaluate with the same arguments.
// Cells whose runs coincide share one execution of it; a cell that was
// never announced executes a run of its own.
func (r *Runs) Want(s *scenario.Scenario, model record.Model, o Options) {
	k := keyOf(s, model, o)
	r.mu.Lock()
	defer r.mu.Unlock()
	sr := r.runs[k]
	if sr == nil {
		sr = &sharedRun{}
		r.runs[k] = sr
	}
	sr.wants++
}

// keyOf resolves the cell's run; o.Seed 0 is the scenario default.
func keyOf(s *scenario.Scenario, model record.Model, o Options) runKey {
	k := runKey{
		scenario: s.Name,
		seed:     o.Seed,
		params:   s.DefaultParams.Clone(o.Params).String(),
		maxSteps: o.MaxSteps,
	}
	if k.seed == 0 {
		k.seed = s.DefaultSeed
	}
	if model == record.Perfect && o.CheckpointInterval > 0 {
		k.interval = uint64(o.CheckpointInterval)
	}
	return k
}

// take returns the cell's run, executing it if no cell has yet. A nil r
// always executes.
func (r *Runs) take(s *scenario.Scenario, model record.Model, o Options) production {
	k := keyOf(s, model, o)
	var sr *sharedRun
	if r != nil {
		r.mu.Lock()
		if sr = r.runs[k]; sr != nil {
			if sr.wants--; sr.wants == 0 {
				delete(r.runs, k)
			}
		}
		r.mu.Unlock()
	}
	if sr == nil {
		return execute(s, k, o)
	}
	sr.once.Do(func() { sr.run = execute(s, k, o) })
	return sr.run
}

// execute performs the production run k names.
func execute(s *scenario.Scenario, k runKey, o Options) production {
	executions.Add(1)
	view, ckpt := record.Run(s, k.seed, o.Params, k.maxSteps, k.interval)
	return production{view, ckpt}
}

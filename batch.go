package debugdet

import (
	"context"
	"iter"

	"debugdet/internal/core"
	"debugdet/internal/par"
)

// Job is one cell of an evaluation grid: a scenario (by registry name)
// evaluated under one determinism model from one production seed.
type Job struct {
	// Scenario is the registry name of the scenario to evaluate.
	Scenario string
	// Model is the determinism model.
	Model Model
	// Seed identifies the production run (0 = scenario default).
	Seed int64
	// Params override scenario defaults (nil keeps them).
	Params Params
	// Options optionally carries the full evaluation options for this
	// cell — shrink parameters, budgets, checkpoints. Seed and
	// Params above take precedence over the embedded fields when set,
	// and the batch always pins the cell's inner search sequential and
	// supplies its own context, so a cell with Options equals the same
	// standalone Evaluate call.
	Options *Options
}

// JobResult pairs a job with its evaluation. Evaluation is nil when the
// job failed (its error is yielded alongside).
type JobResult struct {
	Job        Job
	Evaluation *Evaluation
}

// GridJobs builds the cross product of scenarios × models × seeds in grid
// order (scenario-major), ready for EvaluateBatch. No seeds means one job
// per (scenario, model) at the scenario's default seed.
func GridJobs(scenarios []string, models []Model, seeds ...int64) []Job {
	if len(seeds) == 0 {
		seeds = []int64{0}
	}
	jobs := make([]Job, 0, len(scenarios)*len(models)*len(seeds))
	for _, sc := range scenarios {
		for _, m := range models {
			for _, sd := range seeds {
				jobs = append(jobs, Job{Scenario: sc, Model: m, Seed: sd})
			}
		}
	}
	return jobs
}

// EvaluateBatch evaluates a (scenario, model, seed) grid across the
// engine's worker budget and streams results in job order: a result is
// yielded as soon as the frontier job completes, while a bounded window of
// later cells (a few per worker) computes ahead of the consumer. Each
// cell is evaluated with its inner replay search pinned sequential — the
// grid is the parallel axis — so every cell's result is identical to what a
// lone Evaluate would produce, for every worker count.
//
// A failed cell yields (JobResult{Job: job}, err) and the batch
// continues; cancelling ctx stops the batch after surfacing the context
// error. Breaking out of the range loop stops the remaining work; either
// way no goroutine outlives the iterator.
func (e *Engine) EvaluateBatch(ctx context.Context, jobs []Job) iter.Seq2[JobResult, error] {
	return func(yield func(JobResult, error) bool) {
		type cell struct {
			ev  *Evaluation
			err error
		}
		next := 0
		for i, c := range par.Ordered(ctx, len(jobs), e.workers, func(ctx context.Context, i int) cell {
			ev, err := e.runJob(ctx, jobs[i])
			return cell{ev, err}
		}) {
			next = i + 1
			if !yield(JobResult{Job: jobs[i], Evaluation: c.ev}, c.err) {
				return
			}
		}
		if next < len(jobs) {
			yield(JobResult{Job: jobs[next]}, ctx.Err())
		}
	}
}

// runJob resolves and evaluates one batch cell.
func (e *Engine) runJob(ctx context.Context, j Job) (*Evaluation, error) {
	s, err := e.reg.ByName(j.Scenario)
	if err != nil {
		return nil, err
	}
	var o Options
	if j.Options != nil {
		o = *j.Options
	}
	if j.Seed != 0 {
		o.Seed = j.Seed
	}
	if j.Params != nil {
		o.Params = j.Params
	}
	defer e.fill(ctx, &o.Ctx, &o.ReplayBudget, &o.Workers)()
	// The grid is the parallel axis; each cell's inner search stays
	// sequential so cells are identical to standalone evaluations.
	o.Workers = 1
	return core.Evaluate(s, j.Model, o)
}

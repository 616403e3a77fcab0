package core_test

import (
	"context"
	"testing"

	"debugdet"
	"debugdet/internal/core"
	"debugdet/internal/eval"
	"debugdet/internal/workload"
)

// TestGridsExecuteEachRunOnce: a grid executes each distinct production
// run once, however many cells project it. The benchmark's corpus grid —
// every scenario under every model, plus its output and failure cells again
// with options of their own, 119 cells — and Fig. 1's 85 cells each execute one run per scenario.
func TestGridsExecuteEachRunOnce(t *testing.T) {
	scenarios := len(workload.All())
	eng := debugdet.New()
	var jobs []debugdet.Job
	for _, s := range eng.Scenarios() {
		for _, m := range debugdet.Models() {
			jobs = append(jobs, debugdet.Job{Scenario: s.Name, Model: m})
		}
		for _, m := range []debugdet.Model{debugdet.Output, debugdet.Failure} {
			jobs = append(jobs, debugdet.Job{Scenario: s.Name, Model: m, Options: &debugdet.Options{}})
		}
	}
	before := core.Executions()
	for r, err := range eng.EvaluateBatch(context.Background(), jobs) {
		if err != nil {
			t.Fatalf("%s/%s: %v", r.Job.Scenario, r.Job.Model, err)
		}
	}
	if got := core.Executions() - before; got != int64(scenarios) {
		t.Errorf("the %d-cell corpus grid executed %d production runs, want %d", len(jobs), got, scenarios)
	}

	before = core.Executions()
	rows, err := eval.Fig1(eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := core.Executions() - before; got != int64(scenarios) {
		t.Errorf("Fig. 1's %d cells executed %d production runs, want %d", len(rows)*scenarios, got, scenarios)
	}
}

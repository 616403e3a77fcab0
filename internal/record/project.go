package record

import (
	"fmt"

	"debugdet/internal/checkpoint"
	"debugdet/internal/scenario"
	"debugdet/internal/vm"
)

// Run executes the scenario once as production would, with no recorder
// attached: every determinism model's recording is a projection of this
// one run (Project). maxSteps bounds it (0 = VM default). When interval is
// positive a checkpoint writer captures a snapshot every interval events —
// the one observer a production run keeps live, because a snapshot is of
// the machine, not of the trace — and is returned; otherwise the writer is
// nil.
func Run(s *scenario.Scenario, seed int64, params scenario.Params, maxSteps, interval uint64) (*scenario.RunView, *checkpoint.Writer) {
	var w *checkpoint.Writer
	o := scenario.ExecOptions{Seed: seed, Params: params, MaxSteps: maxSteps}
	if interval > 0 {
		o.ObserverFactory = func(m *vm.Machine) []vm.Observer {
			w = checkpoint.NewWriter(m, interval)
			return []vm.Observer{w}
		}
	}
	return s.Exec(o), w
}

// Project records a finished production run under a policy, offline: it
// drives a Recorder over the run's trace exactly as the machine would have
// driven it live, event by event in order, and captures the recording.
// Recording cost is kept off the virtual clock, so a recorder attached
// live sees the same run and charges the same cycles; the projection is
// byte-identical to the live recording.
//
// It also returns the run as the model sees it: a shallow copy of run
// whose Result carries the recorder's cycles on top of the run's own and
// whose trace header names the policy, sharing run's machine and event
// array. run itself is not modified, so one run projects to every model,
// concurrently if need be.
//
// ckpt is the checkpoint writer of run (see Run), or nil. Live, the
// recorder is attached before the writer, so each snapshot counted the
// recorder's cycles up to its Seq, and the writer priced each snapshot at
// its encoded size, which grows with that count. The recording's
// checkpoints are copies of the writer's with the running cost added and
// re-priced in order; run's own RecordCycles, the writer's charge for the
// unprojected snapshots, is replaced by the re-priced one.
func Project(s *scenario.Scenario, run *scenario.RunView, ckpt *checkpoint.Writer, model Model, policy Policy) (*Recording, *scenario.RunView) {
	r := NewRecorder(run.Machine, policy)
	var snaps, projected []*vm.Snapshot
	if ckpt != nil {
		snaps = ckpt.Snapshots()
		projected = make([]*vm.Snapshot, 0, len(snaps))
	}
	var cycles, ckptCycles uint64
	var ckptBytes int64
	for i := range run.Trace.Events {
		cycles += r.OnEvent(&run.Trace.Events[i])
		for len(snaps) > 0 && snaps[0].Seq <= uint64(i+1) {
			snap := *snaps[0]
			snap.RecordCycles = cycles + ckptCycles
			n := checkpoint.SnapshotSize(&snap)
			ckptBytes += n
			ckptCycles += r.cost.RecordCost(int(n))
			projected = append(projected, &snap)
			snaps = snaps[1:]
		}
	}

	res := *run.Result
	res.RecordCycles = cycles + ckptCycles
	tr := *run.Trace
	tr.Header.Model = policy.Name()
	res.Trace = &tr
	view := &scenario.RunView{Machine: run.Machine, Result: &res, Trace: &tr}

	rec := r.Capture(s, view, model)
	if ckpt != nil {
		rec.Checkpoints = projected
		rec.CheckpointBytes = ckptBytes
	}
	return rec, view
}

// Record runs the scenario once and projects the run to the model's stock
// policy. It is the one-call entry point for the non-RCSE models; RCSE
// recording is orchestrated by the core package because its policy needs
// the scenario's control streams.
func Record(s *scenario.Scenario, model Model, seed int64, params scenario.Params) (*Recording, *scenario.RunView, error) {
	policy := PolicyFor(model)
	if policy == nil {
		return nil, nil, fmt.Errorf("record: model %s needs an explicit policy", model)
	}
	run, _ := Run(s, seed, params, 0, 0)
	rec, view := Project(s, run, nil, model, policy)
	return rec, view, nil
}

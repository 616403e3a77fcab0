package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"debugdet"
)

// childEnv is the environment variable that carries a round's childSpec
// to a child process of the same binary.
const childEnv = "DDBENCH_CHILD"

// childSpec tells a child process what to run.
type childSpec struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"` // length of the measured window
	Traced   bool    `json:"traced"`
	Workers  int     `json:"workers"`
}

// roundResult is what one child measured: one round of one workload.
type roundResult struct {
	// SetupS is the time from child start to the first timed op: engine
	// construction, fixtures, one warm-up op.
	SetupS float64 `json:"setup_s"`
	// OpMs are the latencies of the successful untraced ops.
	OpMs []float64 `json:"op_ms"`
	// Events are the recorded events the successful ops cover and BusyS
	// the wall-clock of all timed sections, failed ops included.
	Events     uint64   `json:"events"`
	BusyS      float64  `json:"busy_s"`
	AllocBytes uint64   `json:"alloc_bytes"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Errors     []string `json:"errors,omitempty"`
	FileBytes  uint64   `json:"file_bytes"`
	FileEvents uint64   `json:"file_events"`
	// Invariant and Work are the counters behind the two fingerprints,
	// as the first clean pass produced them; Stable is false when a later
	// pass disagreed on Work.
	Invariant counters `json:"invariant"`
	Work      counters `json:"work"`
	Stable    bool     `json:"stable"`
	// Layers are the per-layer metrics (traced child only).
	Layers map[string]float64 `json:"layers,omitempty"`
}

// maxErrors bounds the failure messages a round reports.
const maxErrors = 5

func (r *roundResult) fail(n int, err error) {
	r.Failed += n
	if len(r.Errors) < maxErrors {
		r.Errors = append(r.Errors, err.Error())
	}
}

// newRig builds what a workload runs against, with a private scratch
// directory under tmpRoot. The caller removes x.tmp.
func newRig(seed int64, workers int, tmpRoot string, tr *tracer) (*rig, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(tmpRoot, "run-")
	if err != nil {
		return nil, err
	}
	return &rig{
		ctx:  context.Background(),
		eng:  debugdet.New(debugdet.WithWorkers(workers)),
		seed: seed,
		tmp:  tmp,
		tr:   tr,
		inv:  counters{},
		work: counters{},
	}, nil
}

// childMain runs one round and prints its result as one JSON line.
func childMain(specJSON string, start time.Time) error {
	var spec childSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		return fmt.Errorf("bad %s: %w", childEnv, err)
	}
	info, ok := workloadByName(spec.Workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", spec.Workload)
	}
	var tr *tracer
	if spec.Traced {
		tr = newTracer()
	}
	x, err := newRig(spec.Seed, spec.Workers, tmpDir, tr)
	if err != nil {
		return err
	}
	defer os.RemoveAll(x.tmp)

	res := &roundResult{Stable: true}
	w := info.make()
	if err := w.setup(x); err != nil {
		return fmt.Errorf("%s set-up: %w", spec.Workload, err)
	}
	if _, _, err := w.op(x, 0); err != nil {
		return fmt.Errorf("%s warm-up op: %w", spec.Workload, err)
	}
	runtime.GC() // every round starts its window from a collected heap
	res.SetupS = time.Since(start).Seconds()

	window := time.Duration(spec.Seconds * float64(time.Second))
	if !spec.Traced {
		runWindow(x, spec.Workload, w, window, res)
	} else {
		usage := startUsage()
		tracedMs := runWindow(x, spec.Workload, w, window, res)
		res.Layers = map[string]float64{}
		usage.report(res)
		res.Layers["bench.op_ms.p90"] = percentile(append(tracedMs, res.OpMs...), 90)
		res.Layers["bench.trace_overhead_x"] = median(tracedMs) / median(res.OpMs)
		if err := runProbes(x, spec.Workload, res.Layers); err != nil {
			return fmt.Errorf("layer probes: %w", err)
		}
		tr.finish()
		stageMetrics(tr, spec.Workload, res.Layers)
		for name, v := range res.Layers {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				delete(res.Layers, name) // not measured; the parent reports it missing
			}
		}
		if err := writeTrace(filepath.Join(outDir, "trace-"+spec.Workload+".json"), spec, tr, res.Layers); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// runWindow runs whole passes of the workload until the window has
// elapsed and fills in res. In a traced child every second pass records
// spans; the latencies of those passes are returned apart from res.OpMs,
// so that the two can be compared.
func runWindow(x *rig, name string, w workload, window time.Duration, res *roundResult) (tracedMs []float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	deadline := time.Now().Add(window)
	// A traced child needs a pass of each kind, however slow the ops are.
	for pass := 0; time.Now().Before(deadline) || (x.tr != nil && pass < 2); pass++ {
		x.inv, x.work = counters{}, counters{}
		if x.tr != nil {
			x.tr.on = pass%2 == 1
		}
		var ms []float64
		var events uint64
		failed := 0
		for i := 0; i < w.passLen(); i++ {
			if x.tr != nil {
				x.tr.op++
			}
			done := x.tr.begin("bench", name)
			lat, ev, err := w.op(x, i)
			done()
			res.Attempted++
			res.BusyS += lat.Seconds()
			if err != nil {
				failed++
				res.fail(1, err)
				continue
			}
			ms = append(ms, float64(lat)/1e6)
			events += ev
		}
		if failed == 0 {
			switch {
			case res.Invariant == nil:
				res.Invariant, res.Work = x.inv, x.work
			case !x.inv.equal(res.Invariant):
				// The whole pass produced a wrong result.
				res.fail(len(ms), fmt.Errorf("pass %d: invariant fingerprint %s, first pass %s", pass, x.inv.fingerprint(), res.Invariant.fingerprint()))
				continue
			case !x.work.equal(res.Work):
				res.Stable = false
			}
		}
		res.Events += events
		if x.tr != nil && x.tr.on {
			tracedMs = append(tracedMs, ms...)
		} else {
			res.OpMs = append(res.OpMs, ms...)
		}
	}
	if x.tr != nil {
		x.tr.on, x.tr.op = false, 0
	}
	runtime.ReadMemStats(&after)
	res.AllocBytes = after.TotalAlloc - before.TotalAlloc
	res.FileBytes, res.FileEvents = x.fileBytes, x.fileEvents
	return tracedMs
}

// stageMetrics derives bench.stage_ms.* and bench.span_coverage from the
// op spans. A stage the traced workload does not have is taken from the
// reference ops of the first workload that has it.
func stageMetrics(tr *tracer, own string, layers map[string]float64) {
	stages, coverage := tr.opStats(own)
	layers["bench.span_coverage"] = coverage
	for _, info := range workloads {
		if info.name == own {
			continue
		}
		other, _ := tr.opStats(info.name)
		for stage, ms := range other {
			if _, ok := stages[stage]; !ok {
				stages[stage] = ms
			}
		}
	}
	for _, stage := range stageNames {
		if ms, ok := stages[stage]; ok {
			layers["bench.stage_ms."+stage] = ms
		}
	}
}

// traceFile is the layout of bench/out/trace-<workload>.json.
type traceFile struct {
	Spec   childSpec          `json:"spec"`
	Layers map[string]float64 `json:"per_layer"`
	Spans  []span             `json:"spans"`
}

func writeTrace(path string, spec childSpec, tr *tracer, layers map[string]float64) error {
	data, err := json.Marshal(traceFile{Spec: spec, Layers: layers, Spans: tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

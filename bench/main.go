// Command bench is the benchmark of the whole replay pipeline: four
// workloads driven through the public SDK for the end-to-end metrics and,
// in a separate traced run, timed calls into every internal package for
// the per-layer metrics. It is a closed loop with one client in one
// process per round. See README.md.
//
//	bash bench/run.sh                                   every workload, untraced rounds then traced runs
//	bash bench/run.sh -workload corpus -seed 3          a subset, another seed
//	bash bench/run.sh -workload corpus -seed 3 -seconds 20 -trace 0
//	                                                    one workload as the driver runs it: one JSON line last
//	bash bench/run.sh -compare a.json b.json            compare two results files
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// rounds is the number of fresh child processes a workload's measured
// window is split over: set-up is sampled once per round.
const rounds = 5

// childTimeout bounds one child process.
const childTimeout = 150 * time.Second

// outDir holds results, traces and scratch space, relative to the
// repository root the benchmark is run from.
const outDir = "bench/out"

// tmpDir holds every recording file and spill directory while it exists.
var tmpDir = filepath.Join(outDir, "tmp")

// Trace modes: both phases, or one of them as the driver asks for it.
const (
	traceBoth = -1
	traceOff  = 0
	traceOn   = 1
)

func main() {
	start := time.Now()
	if spec := os.Getenv(childEnv); spec != "" {
		if err := childMain(spec, start); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			os.Exit(1)
		}
		return
	}
	workload := flag.String("workload", "", "comma-separated subset of workloads (default: all)")
	seed := flag.Int64("seed", 1, "workload seed; 1 is every scenario's default seed")
	seconds := flag.Float64("seconds", 30, "measured window per workload: split over 5 rounds untraced, whole in the traced run")
	trace := flag.Int("trace", traceBoth, "0: untraced rounds only, 1: traced run only; with one workload the result is printed as one JSON line")
	compare := flag.Bool("compare", false, "compare two results files: -compare a.json b.json")
	flag.Parse()

	var err error
	if *compare {
		err = compareMain(flag.Args(), *workload)
	} else {
		err = benchMain(*workload, *seed, *seconds, *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// selectWorkloads resolves the -workload flag.
func selectWorkloads(list string) ([]workloadInfo, error) {
	if list == "" {
		return workloads, nil
	}
	var sel []workloadInfo
	for _, name := range strings.Split(list, ",") {
		info, ok := workloadByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		sel = append(sel, info)
	}
	return sel, nil
}

// workloadResult is everything measured for one workload.
type workloadResult struct {
	Attempted      int     `json:"attempted"`
	Failed         int     `json:"failed"`
	FailedOpsShare float64 `json:"failed_ops_share"`
	// Invariant and Work are the fingerprints, over the counters below;
	// Correct is false when an op failed, a fingerprint disagreed between
	// passes, rounds or the traced and untraced runs, or the invariant
	// fingerprint of seed 1 is not the pinned one.
	Invariant         string   `json:"invariant"`
	Work              string   `json:"work"`
	InvariantCounters counters `json:"invariant_counters"`
	WorkCounters      counters `json:"work_counters"`
	Correct           bool     `json:"correct"`
	Problems          []string `json:"problems,omitempty"`
	// EndToEnd holds, per metric, the median over rounds and every
	// round's value; Samples is the number of timed ops behind them.
	EndToEnd map[string]endToEndResult `json:"end_to_end,omitempty"`
	Samples  int                       `json:"samples"`
	PerLayer map[string]measured       `json:"per_layer,omitempty"`
}

type endToEndResult struct {
	measured
	Rounds []float64 `json:"rounds"`
}

// results is the layout of bench/out/results.json.
type results struct {
	Header    header                     `json:"header"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func benchMain(list string, seed int64, seconds float64, trace int) error {
	sel, err := selectWorkloads(list)
	if err != nil {
		return err
	}
	if seconds <= 0 || trace < traceBoth || trace > traceOn {
		return errors.New("-seconds must be positive and -trace 0 or 1")
	}
	if _, err := os.Stat("bench/go.mod"); err != nil {
		return errors.New("run from the repository root: bash bench/run.sh")
	}
	// A stale tmp directory is an earlier run's leftover, never an input;
	// and whatever a killed child leaves behind goes when this run ends.
	if err := os.RemoveAll(tmpDir); err != nil {
		return err
	}
	if err := os.MkdirAll(tmpDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(tmpDir)
	workers := min(runtime.NumCPU(), 2)
	out := results{
		Header:    newHeader(seed, seconds, workers),
		Workloads: map[string]*workloadResult{},
	}
	printHeader(out.Header)
	for _, info := range sel {
		out.Workloads[info.name] = &workloadResult{Correct: true}
	}
	spec := childSpec{Seed: seed, Workers: workers}

	if trace != traceOn {
		// Rounds of different workloads are interleaved, so that a burst
		// of noise from a neighbour does not land on one workload.
		perWorkload := map[string][]*roundResult{}
		spec.Seconds, spec.Traced = seconds/rounds, false
		for r := 0; r < rounds; r++ {
			for _, info := range sel {
				spec.Workload = info.name
				res, err := runChild(spec)
				if err != nil {
					return fmt.Errorf("%s round %d: %w", info.name, r+1, err)
				}
				perWorkload[info.name] = append(perWorkload[info.name], res)
			}
		}
		for _, info := range sel {
			out.Workloads[info.name].addRounds(perWorkload[info.name])
		}
	}
	if trace != traceOff {
		spec.Seconds, spec.Traced = seconds, true
		for _, info := range sel {
			spec.Workload = info.name
			res, err := runChild(spec)
			if err != nil {
				return fmt.Errorf("%s traced run: %w", info.name, err)
			}
			if err := out.Workloads[info.name].addTraced(res); err != nil {
				return err
			}
		}
	}

	correct := true
	for _, info := range sel {
		wr := out.Workloads[info.name]
		wr.finish(info.name, seed)
		printWorkload(info.name, wr)
		correct = correct && wr.Correct
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "results.json"), data, 0o644); err != nil {
		return err
	}
	if trace != traceBoth && len(sel) == 1 {
		// The driver's contract: the last line of standard output.
		wr := out.Workloads[sel[0].name]
		line := struct {
			Correct   bool                `json:"correct"`
			Attempted int                 `json:"attempted"`
			Failed    int                 `json:"failed"`
			Metrics   map[string]measured `json:"metrics"`
		}{wr.Correct, wr.Attempted, wr.Failed, wr.PerLayer}
		if trace == traceOff {
			line.Metrics = map[string]measured{}
			for name, m := range wr.EndToEnd {
				line.Metrics[name] = m.measured
			}
		}
		if err := json.NewEncoder(os.Stdout).Encode(line); err != nil {
			return err
		}
	}
	if !correct {
		return errors.New("failed ops or disagreeing fingerprints; see the problems above")
	}
	return nil
}

// runChild runs one round in a fresh process of this binary and decodes
// the result it prints. The child's environment is pinned: see env.go.
func runChild(spec childSpec) (*roundResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(),
		childEnv+"="+string(specJSON),
		fmt.Sprintf("GOMAXPROCS=%d", spec.Workers),
		"GODEBUG="+childGODEBUG,
	)
	// The child dies with the parent, whatever stops the parent.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var res roundResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("child result: %w", err)
	}
	return &res, nil
}

func (wr *workloadResult) problem(format string, args ...any) {
	wr.Correct = false
	wr.Problems = append(wr.Problems, fmt.Sprintf(format, args...))
}

// addFingerprints folds one child's counters in: they must agree with
// every other child of the same workload.
func (wr *workloadResult) addFingerprints(what string, res *roundResult) {
	wr.Attempted += res.Attempted
	wr.Failed += res.Failed
	for _, e := range res.Errors {
		wr.problem("%s: %s", what, e)
	}
	if !res.Stable {
		wr.problem("%s: work fingerprint changed between passes", what)
	}
	if res.Invariant == nil {
		return // no clean pass; the failures are already counted
	}
	if wr.InvariantCounters == nil {
		wr.InvariantCounters, wr.WorkCounters = res.Invariant, res.Work
		return
	}
	if !wr.InvariantCounters.equal(res.Invariant) {
		wr.problem("%s: invariant fingerprint %s, earlier %s", what, res.Invariant.fingerprint(), wr.InvariantCounters.fingerprint())
	}
	if !wr.WorkCounters.equal(res.Work) {
		wr.problem("%s: work fingerprint %s, earlier %s", what, res.Work.fingerprint(), wr.WorkCounters.fingerprint())
	}
}

// addRounds derives the end-to-end metrics: each is the median over
// rounds of the round's own figure.
func (wr *workloadResult) addRounds(rs []*roundResult) {
	perRound := map[string][]float64{}
	for i, r := range rs {
		wr.addFingerprints(fmt.Sprintf("round %d", i+1), r)
		wr.Samples += len(r.OpMs)
		perRound["setup_s"] = append(perRound["setup_s"], r.SetupS)
		if len(r.OpMs) == 0 {
			continue // every op failed; nothing to time
		}
		perRound["op_ms.p50"] = append(perRound["op_ms.p50"], median(r.OpMs))
		perRound["events_per_s"] = append(perRound["events_per_s"], float64(r.Events)/r.BusyS)
		perRound["alloc_mb_per_op"] = append(perRound["alloc_mb_per_op"], float64(r.AllocBytes)/1e6/float64(r.Attempted))
		perRound["file_bytes_per_event"] = append(perRound["file_bytes_per_event"], float64(r.FileBytes)/float64(r.FileEvents))
	}
	wr.EndToEnd = map[string]endToEndResult{}
	for _, d := range endToEnd {
		if v := perRound[d.Name]; len(v) > 0 {
			wr.EndToEnd[d.Name] = endToEndResult{measured{median(v), d.Unit}, v}
		} else {
			wr.problem("no successful op to derive %s from", d.Name)
		}
	}
}

func (wr *workloadResult) addTraced(res *roundResult) error {
	wr.addFingerprints("traced run", res)
	var err error
	wr.PerLayer, err = layerMetrics(res.Layers)
	return err
}

func (wr *workloadResult) finish(name string, seed int64) {
	if wr.Attempted > 0 {
		wr.FailedOpsShare = float64(wr.Failed) / float64(wr.Attempted)
	}
	if wr.Failed > 0 {
		wr.Correct = false
	}
	if wr.InvariantCounters == nil {
		return
	}
	wr.Invariant, wr.Work = wr.InvariantCounters.fingerprint(), wr.WorkCounters.fingerprint()
	if want := pinnedInvariant[name]; seed == 1 && wr.Invariant != want {
		wr.problem("invariant fingerprint %s at seed 1, pinned %s: %v", wr.Invariant, want, wr.InvariantCounters)
	}
}

func printHeader(h header) {
	fmt.Printf("commit %s  seed %d  seconds %g  rounds %d  nproc %d  GOMAXPROCS %d  workers %d\n",
		h.Commit, h.Seed, h.Seconds, h.Rounds, h.NProc, h.GOMAXPROCS, h.Workers)
	fmt.Printf("%s  %s  GOGC %s  GODEBUG %s\n", h.GoVersion, h.CPUModel, h.GOGC, h.GODEBUG)
	fmt.Printf("tmp %s (%s)  %s\n", h.TmpDir, h.TmpFS, h.Flush)
}

func printWorkload(name string, wr *workloadResult) {
	fmt.Printf("\n%s  attempted %d  failed %d  failed_ops_share %.4g  invariant %s  work %s\n",
		name, wr.Attempted, wr.Failed, wr.FailedOpsShare, wr.Invariant, wr.Work)
	for _, p := range wr.Problems {
		fmt.Printf("  PROBLEM %s\n", p)
	}
	for _, d := range endToEnd {
		if m, ok := wr.EndToEnd[d.Name]; ok {
			q1, q3 := quartiles(m.Rounds)
			fmt.Printf("  %-34s %14.6g %-8s quartiles %.6g..%.6g over %d rounds, %d ops\n",
				d.Name, m.Value, m.Unit, q1, q3, len(m.Rounds), wr.Samples)
		}
	}
	for _, d := range perLayer {
		if m, ok := wr.PerLayer[d.Name]; ok {
			fmt.Printf("  %-34s %14.6g %s\n", d.Name, m.Value, m.Unit)
		}
	}
}

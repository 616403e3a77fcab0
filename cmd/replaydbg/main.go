// Command replaydbg is the replay debugger's CLI: run a scenario (once, or
// sweeping seeds to watch its bug manifest), record it under a determinism
// model, replay a recording (front-to-back, seeked, or as an interactive
// time-travel session), or run the full evaluation pipeline with metrics.
//
// The usage text is generated from the command table below, so the help
// can never drift from the actual verb set. Run "replaydbg help" (or any
// unknown verb/flag) for the synopsis; unknown flags exit with status 2.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"debugdet"
	"debugdet/scen"
)

var eng = debugdet.New()

// opts carries every flag any command accepts; each command registers only
// the flags it uses, so unknown flags fail fast.
type opts struct {
	scenario string
	model    string
	seed     int64
	out      string
	in       string
	budget   int
	ckpt     int64
	to       uint64
	script   string
	spill    string
	ring     int
	retain   int
	sweep    int64
	params   debugdet.Params
}

// flag registration helpers, composed per command.
func scenarioFlag(fs *flag.FlagSet, o *opts) {
	fs.StringVar(&o.scenario, "scenario", "", "scenario name (see 'replaydbg list')")
}
func modelFlag(fs *flag.FlagSet, o *opts) {
	fs.StringVar(&o.model, "model", "perfect", "determinism model (eval also takes 'all')")
}
func seedFlag(fs *flag.FlagSet, o *opts) {
	fs.Int64Var(&o.seed, "seed", 0, "scheduler seed (0 = scenario default)")
}
func outFlag(fs *flag.FlagSet, o *opts) {
	fs.StringVar(&o.out, "out", "", "recording output path")
}
func inFlag(fs *flag.FlagSet, o *opts) {
	fs.StringVar(&o.in, "in", "", "recording input path")
}
func budgetFlag(fs *flag.FlagSet, o *opts) {
	fs.IntVar(&o.budget, "budget", 200, "inference budget for relaxed-model replay")
}
func ckptFlag(fs *flag.FlagSet, o *opts) {
	fs.Int64Var(&o.ckpt, "ckpt", 0, "checkpoint interval in events (0 = off for record, default for debug/seek; negative rejected)")
}
func toFlag(fs *flag.FlagSet, o *opts) {
	fs.Uint64Var(&o.to, "to", 0, "target event to seek to")
}
func scriptFlag(fs *flag.FlagSet, o *opts) {
	fs.StringVar(&o.script, "script", "", "semicolon-separated debug commands to run instead of reading stdin")
}
func spillFlag(fs *flag.FlagSet, o *opts) {
	fs.StringVar(&o.spill, "spill", "", "spill directory: record with the always-on flight recorder instead of an in-memory recording")
}
func ringFlag(fs *flag.FlagSet, o *opts) {
	fs.IntVar(&o.ring, "ring", 0, "flight recorder: sealed segments kept in memory (0 = default)")
}
func retainFlag(fs *flag.FlagSet, o *opts) {
	fs.IntVar(&o.retain, "retain", 0, "flight recorder: spilled segments kept on disk (0 = keep all)")
}
func sweepFlag(fs *flag.FlagSet, o *opts) {
	fs.Int64Var(&o.sweep, "sweep", 0, "run seeds [0,n) and summarize the failing ones, instead of one run at -seed")
}
func paramFlag(fs *flag.FlagSet, o *opts) {
	o.params = debugdet.Params{}
	fs.Func("param", "scenario parameter override `name=integer` (repeatable)", func(arg string) error {
		name, val, _ := strings.Cut(arg, "=")
		n, err := strconv.ParseInt(val, 10, 64)
		if name == "" || err != nil {
			return fmt.Errorf("want name=integer")
		}
		o.params[name] = n
		return nil
	})
}

// command is one CLI verb. Usage text and dispatch both derive from the
// table, so adding a verb here is the single step that makes it exist.
type command struct {
	name     string
	synopsis string
	flags    []func(*flag.FlagSet, *opts)
	run      func(o *opts)
}

// commands is populated in init: the "help" entry prints the table it
// lives in, which a declaration-time initializer would make a cycle.
var commands []command

func init() {
	commands = []command{
		{"list", "list the scenario corpus", nil,
			func(*opts) { runList() }},
		{"run", "run a scenario once, or sweep seeds, without recording",
			[]func(*flag.FlagSet, *opts){scenarioFlag, seedFlag, sweepFlag, paramFlag},
			func(o *opts) { runRun(o) }},
		{"record", "record a production run under a determinism model",
			[]func(*flag.FlagSet, *opts){scenarioFlag, modelFlag, seedFlag, outFlag, ckptFlag, spillFlag, ringFlag, retainFlag},
			func(o *opts) { runRecord(o) }},
		{"replay", "replay a recording front-to-back",
			[]func(*flag.FlagSet, *opts){scenarioFlag, inFlag, budgetFlag},
			func(o *opts) { runReplay(o.scenario, o.in, o.budget) }},
		{"seek", "jump to an event of a recording and show the state there",
			[]func(*flag.FlagSet, *opts){scenarioFlag, inFlag, toFlag},
			func(o *opts) { runSeek(o.scenario, o.in, o.to) }},
		{"debug", "interactive time-travel session over a recording",
			[]func(*flag.FlagSet, *opts){scenarioFlag, inFlag, seedFlag, ckptFlag, scriptFlag},
			func(o *opts) { runDebug(o.scenario, o.in, o.seed, o.ckpt, o.script) }},
		{"eval", "run the record → replay → metrics pipeline",
			[]func(*flag.FlagSet, *opts){scenarioFlag, modelFlag, seedFlag, budgetFlag},
			func(o *opts) { runEval(o.scenario, o.model, o.seed, o.budget) }},
		{"causes", "enumerate root causes explaining the failure signature",
			[]func(*flag.FlagSet, *opts){scenarioFlag, budgetFlag},
			func(o *opts) { runCauses(o.scenario, o.budget) }},
		{"show", "print a recording's summary and first events",
			[]func(*flag.FlagSet, *opts){inFlag},
			func(o *opts) { runShow(o.in) }},
		{"info", "print a recording file's or spill directory's checkpoint and segment summary",
			[]func(*flag.FlagSet, *opts){inFlag},
			func(o *opts) { runInfo(o.in) }},
		{"help", "print this usage text", nil,
			func(*opts) { usage(os.Stdout) }},
	}
}

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	name := os.Args[1]
	for i := range commands {
		cmd := &commands[i]
		if cmd.name != name {
			continue
		}
		var o opts
		fs := flag.NewFlagSet(cmd.name, flag.ContinueOnError)
		for _, reg := range cmd.flags {
			reg(fs, &o)
		}
		if err := fs.Parse(os.Args[2:]); err != nil {
			usage(os.Stderr)
			os.Exit(2)
		}
		if fs.NArg() > 0 {
			fmt.Fprintf(os.Stderr, "replaydbg %s: unexpected argument %q\n", cmd.name, fs.Arg(0))
			usage(os.Stderr)
			os.Exit(2)
		}
		cmd.run(&o)
		return
	}
	fmt.Fprintf(os.Stderr, "replaydbg: unknown command %q\n", name)
	usage(os.Stderr)
	os.Exit(2)
}

// usage renders the verb table.
func usage(w *os.File) {
	names := make([]string, len(commands))
	for i, c := range commands {
		names[i] = c.name
	}
	fmt.Fprintf(w, "usage: replaydbg <%s> [flags]\n\n", strings.Join(names, "|"))
	for _, c := range commands {
		fmt.Fprintf(w, "  %-8s %s\n", c.name, c.synopsis)
	}
	fmt.Fprintln(w, "\nRun any command with -h for its flags.")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "replaydbg:", err)
	os.Exit(1)
}

func mustScenario(name string) *debugdet.Scenario {
	if name == "" {
		fatal(fmt.Errorf("missing -scenario"))
	}
	s, err := eng.ByName(name)
	if err != nil {
		fatal(err)
	}
	return s
}

func loadRecording(path string) *debugdet.Recording {
	if path == "" {
		fatal(fmt.Errorf("missing -in recording path"))
	}
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	rec, err := debugdet.LoadRecording(f)
	if err != nil {
		fatal(err)
	}
	return rec
}

// runRun executes the scenario as production would — no recorder — and
// reports whether its bug manifested: one run at -seed, or with -sweep a
// line per failing seed of [0,n) and the count.
func runRun(o *opts) {
	s := mustScenario(o.scenario)
	if o.sweep > 0 {
		failures := 0
		for seed := int64(0); seed < o.sweep; seed++ {
			v := s.Exec(scen.ExecOptions{Seed: seed, Params: o.params})
			if failed, _ := s.CheckFailure(v); failed {
				failures++
				fmt.Printf("seed=%-4d FAIL %s causes=%v\n", seed, s.RunStats(v), s.PresentCauses(v))
			}
		}
		fmt.Printf("%d/%d seeds failed\n", failures, o.sweep)
		return
	}
	seed := o.seed
	if seed == 0 {
		seed = s.DefaultSeed
	}
	v := s.Exec(scen.ExecOptions{Seed: seed, Params: o.params})
	fmt.Printf("run: %s\n", s.RunStats(v))
	fmt.Printf("events=%d cycles=%d\n", v.Result.Steps, v.Result.Cycles)
	if failed, sig := s.CheckFailure(v); failed {
		fmt.Printf("FAILURE %s — root causes present: %v\n", sig, s.PresentCauses(v))
	} else {
		fmt.Println("no failure observed")
	}
}

func runList() {
	for _, s := range eng.Scenarios() {
		fmt.Printf("%-18s seed=%-4d %s\n", s.Name, s.DefaultSeed, s.Description)
	}
}

// runCauses implements the paper's §5 extension: enumerate every root
// cause that can explain the scenario's failure, from the signature alone.
func runCauses(scenarioName string, budget int) {
	ctx := context.Background()
	s := mustScenario(scenarioName)
	// Obtain the signature the way failure determinism would: from the
	// recorded failing run's bug report.
	rec, _, err := eng.Record(ctx, s, debugdet.Failure, debugdet.Options{})
	if err != nil {
		fatal(err)
	}
	if !rec.Failed {
		fatal(fmt.Errorf("default seed does not fail; nothing to explain"))
	}
	fmt.Printf("failure signature: %q\n", rec.FailureSig)
	ex, err := eng.ExploreCauses(ctx, s, rec.FailureSig, debugdet.Options{ReplayBudget: budget})
	if err != nil {
		fatal(err)
	}
	fmt.Println(ex.Summary())
	ids := make([]string, 0, len(ex.Found))
	for id := range ex.Found {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		v := ex.Found[id]
		fmt.Printf("  %-18s synthesized in %d steps (outcome %s)\n",
			id, v.Result.Steps, v.Result.Outcome)
	}
	for _, id := range ex.Missing {
		fmt.Printf("  %-18s NOT reachable within budget\n", id)
	}
}

func runRecord(o *opts) {
	s := mustScenario(o.scenario)
	if o.spill != "" {
		runRecordStreaming(s, o)
		return
	}
	model, err := debugdet.ParseModel(o.model)
	if err != nil {
		fatal(err)
	}
	rec, view, err := eng.Record(context.Background(), s, model, debugdet.Options{
		Seed:               o.seed,
		CheckpointInterval: o.ckpt,
	})
	if err != nil {
		fatal(err)
	}
	failed, sig := s.Failure.Check(view)
	fmt.Printf("recorded: %s\n", rec.Summary())
	if len(rec.Checkpoints) > 0 {
		fmt.Printf("checkpoints: %d every %d events (%d bytes)\n",
			len(rec.Checkpoints), o.ckpt, rec.CheckpointBytes)
	}
	fmt.Printf("original run: outcome=%s failed=%v sig=%q causes=%v\n",
		view.Result.Outcome, failed, sig, s.PresentCauses(view))
	if o.out != "" {
		f, err := os.Create(o.out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := debugdet.SaveRecording(f, rec); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", o.out)
	}
}

// runRecordStreaming records with the always-on flight recorder: segments
// rotate through a bounded in-memory ring and spill to -spill; nothing
// else of the run is kept in memory.
func runRecordStreaming(s *debugdet.Scenario, o *opts) {
	if o.model != "" && o.model != "perfect" {
		fatal(fmt.Errorf("-spill records under the perfect model (streaming needs the complete event stream); drop -model %s", o.model))
	}
	fr, err := eng.RecordStreaming(context.Background(), s, debugdet.Options{
		Seed:               o.seed,
		CheckpointInterval: o.ckpt,
		FlightRecorder: &debugdet.FlightRecorderOptions{
			SpillDir:     o.spill,
			RingSegments: o.ring,
			Retention:    o.retain,
		},
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("flight-recorded %s: %d events in %d segments (%d spilled, %d evicted)\n",
		s.Name, fr.Events, fr.Segments, fr.Spilled, fr.Evicted)
	fmt.Printf("bytes: log=%d checkpoints=%d feed-log=%d; peak recorder memory %d\n",
		fr.LogBytes, fr.CheckpointBytes, fr.FeedBytes, fr.PeakMemBytes)
	fmt.Printf("original run: failed=%v sig=%q\n", fr.Failed, fr.FailureSig)
	fmt.Printf("wrote %s (use 'replaydbg info|seek|debug -in %s')\n", o.spill, o.spill)
}

func runReplay(scenarioName, in string, budget int) {
	rec := loadRecording(in)
	name := scenarioName
	if name == "" {
		name = rec.Scenario
	}
	s := mustScenario(name)
	res, err := eng.Replay(context.Background(), s, rec, debugdet.ReplayOptions{Budget: budget})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("replay: ok=%v attempts=%d note=%s\n", res.Ok, res.Attempts, res.Note)
	if res.View != nil {
		failed, sig := s.Failure.Check(res.View)
		fmt.Printf("replayed run: outcome=%s failed=%v sig=%q causes=%v\n",
			res.View.Result.Outcome, failed, sig, s.PresentCauses(res.View))
	}
}

// runSeek jumps to an event and prints the machine state there: the
// non-interactive face of time travel, and what the debug REPL's seek
// does.
func runSeek(scenarioName, in string, target uint64) {
	st := openStore(in)
	name := scenarioName
	if name == "" {
		name = st.Meta().Scenario
	}
	s := mustScenario(name)
	sess, err := eng.Seek(context.Background(), s, st, target, debugdet.ReplayOptions{})
	if err != nil {
		fatal(err)
	}
	defer sess.Close()
	from := "start (no checkpoint ≤ target)"
	if sess.FromCheckpoint {
		from = fmt.Sprintf("checkpoint @%d", sess.SuffixFrom)
	}
	fmt.Printf("position %d/%d, restored from %s, replayed %d events\n",
		sess.Pos(), st.Meta().EventCount, from, sess.ReplaySteps)
	printThreads(sess.Machine)
}

// openStore opens what seek and debug navigate: a flight recorder's spill
// directory as it stands on disk, or a .ddrc recording — one code path for
// both.
func openStore(in string) debugdet.SegmentStore {
	if !isDir(in) {
		return loadRecording(in)
	}
	st, err := debugdet.OpenSegmentStore(in)
	if err != nil {
		fatal(err)
	}
	return st
}

// isDir reports whether path exists and is a directory (a flight
// recorder's spill directory rather than a .ddrc recording file).
func isDir(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.IsDir()
}

// runEval evaluates the scenario under one model, or with -model all under
// every model, one summary line each.
func runEval(scenarioName, modelName string, seed int64, budget int) {
	s := mustScenario(scenarioName)
	models := debugdet.Models()
	if modelName != "all" {
		model, err := debugdet.ParseModel(modelName)
		if err != nil {
			fatal(err)
		}
		models = []debugdet.Model{model}
	}
	for _, model := range models {
		ev, err := eng.Evaluate(context.Background(), s, model, debugdet.Options{
			Seed:         seed,
			ReplayBudget: budget,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Println(ev.Summary())
		if modelName != "all" {
			fmt.Printf("recording: %s\n", ev.Recording.Summary())
			fmt.Printf("fidelity:  %s\n", ev.Fidelity)
			fmt.Printf("replay:    ok=%v note=%s\n", ev.Replay.Ok, ev.Replay.Note)
		}
	}
}

func runShow(in string) {
	rec := loadRecording(in)
	fmt.Println(rec.Summary())
	// The table names only the streams the recorded events reference.
	fmt.Print("streams:")
	for id, name := range rec.Streams {
		if name != "" {
			fmt.Printf(" %d=%s", id, name)
		}
	}
	fmt.Println()
	if seqs := rec.SnapshotSeqs(); len(seqs) > 0 {
		fmt.Printf("checkpoints: %d at %v (%d bytes)\n", len(seqs), seqs, rec.CheckpointBytes)
	}
	fmt.Printf("first events (of %d):\n", len(rec.Full))
	for i, e := range rec.Full {
		if i >= 20 {
			fmt.Println("  ...")
			break
		}
		fmt.Printf("  %s\n", e)
	}
}

// runInfo prints the checkpoint/segment structure of a recording file or
// a flight recorder's spill directory. A nonexistent path is a usage
// error (status 2), matching unknown verbs and flags.
func runInfo(in string) {
	if in == "" {
		fatal(fmt.Errorf("missing -in path (a .ddrc recording or a spill directory)"))
	}
	if _, err := os.Stat(in); err != nil {
		fmt.Fprintf(os.Stderr, "replaydbg info: %v\n", err)
		usage(os.Stderr)
		os.Exit(2)
	}
	if isDir(in) {
		infoStore(in)
		return
	}
	rec := loadRecording(in)
	fmt.Println(rec.Summary())
	fmt.Printf("checkpoints: %d (%d bytes)\n", len(rec.Checkpoints), rec.CheckpointBytes)
	segs := rec.Segments()
	fmt.Printf("segments: %d\n", len(segs))
	for _, si := range segs {
		fmt.Printf("  %3d  [%8d, %8d)  %8d events\n", si.Index, si.From, si.To, si.Events())
	}
}

// infoStore prints a spill directory's manifest summary. A directory that
// is not a readable spill directory — empty, missing its manifest, or
// holding a truncated one — is a usage error (status 2) like a
// nonexistent path, not an internal failure.
func infoStore(dir string) {
	st, err := debugdet.OpenSegmentStore(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "replaydbg info: %s is not a flight-recorder spill directory: %v\n", dir, err)
		os.Exit(2)
	}
	meta := st.Meta()
	fmt.Printf("flight recording: %s model=%s seed=%d events=%d interval=%d finalized=%v\n",
		meta.Scenario, meta.Model, meta.Seed, meta.EventCount, meta.Interval, st.Finalized())
	fmt.Printf("terminal: failed=%v sig=%q; streams=%v\n", meta.Failed, meta.FailureSig, meta.Streams)
	fmt.Printf("feed log: %d entries, %d bytes (full-run seekability floor)\n", st.FeedCount(), st.FeedBytes())
	segs := st.Segments()
	lo, hi := uint64(0), uint64(0)
	if len(segs) > 0 {
		lo, hi = segs[0].From, segs[len(segs)-1].To
	}
	fmt.Printf("retained segments: %d covering [%d, %d); checkpoints at %v\n",
		len(segs), lo, hi, st.SnapshotSeqs())
	for _, si := range segs {
		fmt.Printf("  %3d  [%8d, %8d)  %8d events  %8d bytes  %s\n",
			si.Index, si.From, si.To, si.Events(), si.Bytes, si.File)
	}
}

// Package eval is the experiment harness: it regenerates every figure and
// table of the paper's evaluation (see DESIGN.md §3 for the experiment
// index). Each experiment returns structured rows and has a text renderer
// that prints the series the paper plots; experiments.go is the registry
// that names each pair as one artifact.
package eval

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"debugdet/internal/core"
	"debugdet/internal/dynokv"
	"debugdet/internal/lint/sites"
	"debugdet/internal/par"
	"debugdet/internal/plane"
	"debugdet/internal/progen"
	"debugdet/internal/record"
	"debugdet/internal/replay"
	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/workload"
)

// Options tunes experiment cost. The defaults match EXPERIMENTS.md.
type Options struct {
	// Ctx cancels the experiment between cells and at each in-flight
	// cell's phase boundaries (nil = context.Background()).
	Ctx context.Context
	// ReplayBudget bounds inference attempts per cell (default 200).
	ReplayBudget int
	// Scenarios restricts the corpus (nil = all).
	Scenarios []string
	// Workers is the number of (scenario, model) cells evaluated
	// concurrently (default GOMAXPROCS; 1 opts out). Cells share no
	// state and every cell is deterministic, so results are identical
	// for every worker count. When the grid runs in parallel each
	// cell's inner replay search stays sequential — the grid is the
	// outer parallelism and already saturates the cores.
	Workers int
	// CheckpointInterval captures VM state snapshots into perfect-model
	// recordings every that many events (0 = off, negative rejected by
	// the pipeline), so the overhead tables can report the checkpoint
	// volume and capture cost next to the log volume (T-OVH's checkpoint
	// column; the T-CKPT sweep varies it).
	CheckpointInterval int64
}

func (o Options) withDefaults() Options {
	if o.Ctx == nil {
		o.Ctx = context.Background()
	}
	if o.ReplayBudget == 0 {
		o.ReplayBudget = 200
	}
	return o
}

// grid evaluates n independent cells across o's workers (o already
// defaulted) and returns them in index order. fn must not touch shared
// state. Under the worker contract (DESIGN.md §0) the error returned is the
// lowest-index cell's, as a sequential loop would have surfaced, and no new
// cell is dispatched once it has been seen; a cancelled grid that saw no
// cell error reports the context's.
func grid[T any](o Options, n int, fn func(i int) (T, error)) ([]T, error) {
	type cell struct {
		v   T
		err error
	}
	out := make([]T, 0, n)
	for _, c := range par.Ordered(o.Ctx, n, o.Workers, func(_ context.Context, i int) cell {
		v, err := fn(i)
		return cell{v, err}
	}) {
		if c.err != nil {
			return nil, c.err
		}
		out = append(out, c.v)
	}
	if len(out) < n {
		return nil, o.Ctx.Err()
	}
	return out, nil
}

// corpus resolves the scenario list.
func (o Options) corpus() []*scenario.Scenario {
	all := workload.All()
	if len(o.Scenarios) == 0 {
		return all
	}
	want := make(map[string]bool, len(o.Scenarios))
	for _, n := range o.Scenarios {
		want[n] = true
	}
	var out []*scenario.Scenario
	for _, s := range all {
		if want[s.Name] {
			out = append(out, s)
		}
	}
	return out
}

// Cell is one (scenario, model) measurement.
type Cell struct {
	Scenario string
	Model    record.Model
	Overhead float64
	LogBytes int64
	DF       float64
	DE       float64
	DU       float64
	Attempts int
	// CkptCount and CkptBytes describe the checkpoints captured into the
	// recording (zero unless the cell ran with a checkpoint interval —
	// perfect model only).
	CkptCount int
	CkptBytes int64
	// OrigCause and ReplayCause summarize the fidelity evidence.
	OrigCause   string
	ReplayCause string
}

func cellOf(ev *core.Evaluation) Cell {
	return Cell{
		Scenario:    ev.Scenario,
		Model:       ev.Model,
		Overhead:    ev.Overhead,
		LogBytes:    ev.LogBytes,
		DF:          ev.Utility.DF,
		DE:          ev.Utility.DE,
		DU:          ev.Utility.DU,
		Attempts:    ev.Replay.Attempts,
		CkptCount:   len(ev.Recording.Checkpoints),
		CkptBytes:   ev.Recording.CheckpointBytes,
		OrigCause:   strings.Join(ev.Fidelity.OrigCauses, ","),
		ReplayCause: strings.Join(ev.Fidelity.ReplayCauses, ","),
	}
}

// cellSpec is one (scenario, model) cell of a table, at an explicit
// production seed and parameter overrides (both zero-valued for the
// standard tables; T-FUZZ pins them to a regenerated program).
type cellSpec struct {
	s      *scenario.Scenario
	model  record.Model
	seed   int64
	params scenario.Params
}

// evalCells evaluates a table's cells across o's workers with the harness
// defaults. All tables share this one cell constructor — and its error
// wrap, which names the table — so they can never drift apart. Cells of
// the same production run share one execution of it (core.Runs): every
// model's recording is a projection of that run. RCSE cells record the
// declared control streams and the schedule, matching §4 ("recording just
// the data on control-plane channels and the thread schedule"). Each
// cell's inner replay search is pinned sequential: the grid is the
// parallel axis (see Options.Workers).
func evalCells(table string, o Options, cells []cellSpec) ([]Cell, error) {
	o = o.withDefaults()
	opts := make([]core.Options, len(cells))
	runs := core.NewRuns()
	for i, c := range cells {
		opts[i] = core.Options{
			Ctx:                o.Ctx,
			Seed:               c.seed,
			Params:             c.params,
			ReplayBudget:       o.ReplayBudget,
			Workers:            1,
			CheckpointInterval: o.CheckpointInterval,
		}
		runs.Want(c.s, c.model, opts[i])
	}
	return grid(o, len(cells), func(i int) (Cell, error) {
		c := cells[i]
		ev, err := runs.Evaluate(c.s, c.model, opts[i])
		if err != nil {
			return Cell{}, fmt.Errorf("%s %s/%s: %w", table, c.s.Name, c.model, err)
		}
		return cellOf(ev), nil
	})
}

// Fig1Row aggregates one determinism model over the corpus: the point the
// paper's Fig. 1 places on the (debugging utility, runtime overhead)
// plane.
type Fig1Row struct {
	Model        record.Model
	MeanOverhead float64
	MeanDF       float64
	MeanDE       float64
	MeanDU       float64
	Cells        []Cell
}

// Fig1 reproduces Figure 1: the relaxation trend. Every model is evaluated
// on every corpus scenario — the cells run across the worker pool — and
// the row means are the plotted coordinates.
func Fig1(o Options) ([]Fig1Row, error) {
	models := record.AllModels()
	corpus := o.corpus()
	specs := make([]cellSpec, 0, len(models)*len(corpus))
	for _, m := range models {
		for _, s := range corpus {
			specs = append(specs, cellSpec{s: s, model: m})
		}
	}
	cells, err := evalCells("fig1", o, specs)
	if err != nil {
		return nil, err
	}
	var rows []Fig1Row
	for mi, model := range models {
		row := Fig1Row{Model: model}
		row.Cells = append(row.Cells, cells[mi*len(corpus):(mi+1)*len(corpus)]...)
		n := float64(len(row.Cells))
		for _, c := range row.Cells {
			row.MeanOverhead += c.Overhead / n
			row.MeanDF += c.DF / n
			row.MeanDE += c.DE / n
			row.MeanDU += c.DU / n
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFig1 prints the Fig. 1 series.
func RenderFig1(rows []Fig1Row) string {
	var b strings.Builder
	b.WriteString("Figure 1 — relaxation trend: runtime overhead vs debugging utility\n")
	b.WriteString("(each point is the mean over the scenario corpus)\n\n")
	fmt.Fprintf(&b, "%-12s %10s %8s %8s %8s\n", "model", "overhead", "DF", "DE", "DU")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %9.2fx %8.3f %8.3f %8.3f\n",
			r.Model, r.MeanOverhead, r.MeanDF, r.MeanDE, r.MeanDU)
	}
	b.WriteString("\nper-cell detail:\n")
	fmt.Fprintf(&b, "%-12s %-18s %9s %8s %8s %8s %9s\n",
		"model", "scenario", "overhead", "DF", "DE", "DU", "logbytes")
	for _, r := range rows {
		for _, c := range r.Cells {
			fmt.Fprintf(&b, "%-12s %-18s %8.2fx %8.3f %8.3f %8.3f %9d\n",
				c.Model, c.Scenario, c.Overhead, c.DF, c.DE, c.DU, c.LogBytes)
		}
	}
	return b.String()
}

// Fig2 reproduces Figure 2: the Hypertable data-loss case study. The paper
// plots value determinism, failure determinism and RCSE; perfect and
// output determinism are included as reference rows.
func Fig2(o Options) ([]Cell, error) {
	s, err := workload.ByName("hyperkv-dataloss")
	if err != nil {
		return nil, err
	}
	models := []record.Model{
		record.Value, record.Failure, record.DebugRCSE,
		record.Perfect, record.Output,
	}
	specs := make([]cellSpec, len(models))
	for i, m := range models {
		specs[i] = cellSpec{s: s, model: m}
	}
	return evalCells("fig2", o, specs)
}

// RenderFig2 prints the Fig. 2 points.
func RenderFig2(cells []Cell) string {
	var b strings.Builder
	b.WriteString("Figure 2 — Hypertable data-loss bug: recording overhead vs debugging fidelity\n")
	b.WriteString("(first three rows are the models the paper plots)\n\n")
	fmt.Fprintf(&b, "%-12s %10s %10s %12s %-18s %-18s\n",
		"model", "overhead", "fidelity", "log bytes", "orig cause", "replay cause")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-12s %9.2fx %10.3f %12d %-18s %-18s\n",
			c.Model, c.Overhead, c.DF, c.LogBytes, c.OrigCause, c.ReplayCause)
	}
	return b.String()
}

// TableDF reproduces the §4 fidelity numbers (T-DF).
func TableDF(cells []Cell) string {
	var b strings.Builder
	b.WriteString("Table DF — §4 debugging fidelity on the Hypertable bug\n")
	b.WriteString("paper: value = 1, RCSE = 1, failure = 1/3 (three possible root causes)\n\n")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-12s DF = %.3f\n", c.Model, c.DF)
	}
	return b.String()
}

// TableOverhead reproduces the §4 recording-overhead comparison (T-OVH).
func TableOverhead(cells []Cell) string {
	var b strings.Builder
	b.WriteString("Table OVH — §4 recording overhead on the Hypertable bug\n")
	b.WriteString("paper: value records all inputs and interleavings; RCSE records control-plane\n")
	b.WriteString("data and the thread schedule; failure determinism records only the failure state\n")
	b.WriteString("(checkpoints column is non-zero when the run was recorded with a checkpoint\n")
	b.WriteString("interval — perfect model only; see T-CKPT for the interval trade-off)\n\n")
	for _, c := range cells {
		ckpt := "-"
		if c.CkptCount > 0 {
			ckpt = fmt.Sprintf("%d ckpts / %d bytes", c.CkptCount, c.CkptBytes)
		}
		fmt.Fprintf(&b, "%-12s overhead = %5.2fx  log = %8d bytes  ckpt = %s\n", c.Model, c.Overhead, c.LogBytes, ckpt)
	}
	return b.String()
}

// familyTable is one scenario family swept over every determinism model:
// the shape T-DYNO, T-DISK and T-FUZZ share, so the three tables have one
// generator and one renderer and differ only in this data.
type familyTable struct {
	name      string // artifact name; also the cell error prefix
	title     string
	note      string
	width     int // scenario column width
	scenarios []string
}

// scenarioNames derives a table's scenario list from the family itself, so
// the table can never drift from the catalog.
func scenarioNames(family []*scenario.Scenario) []string {
	var names []string
	for _, s := range family {
		names = append(names, s.Name)
	}
	return names
}

var (
	// DynoKVScenarios lists the Dynamo-style replication family measured
	// by T-DYNO.
	DynoKVScenarios = scenarioNames(dynokv.Family())
	// DiskScenarios lists the durability family measured by T-DISK.
	DiskScenarios = scenarioNames(dynokv.DurableFamily())
	// FuzzScenarios lists the generated fuzz family measured by T-FUZZ.
	FuzzScenarios = scenarioNames(progen.Corpus())

	dynoTable = familyTable{"dynokv",
		"Table DYNO — determinism models on the Dynamo-style replication family",
		"(debug determinism must match the best fidelity at near-native overhead)",
		18, DynoKVScenarios}
	diskTable = familyTable{"disk",
		"Table DISK — determinism models on the durability family",
		"(crash-restart bugs on the simulated disk: torn WAL, fsync reordering, snapshot resurrection)",
		18, DiskScenarios}
	fuzzTable = familyTable{"fuzz",
		"Table FUZZ — determinism models on the generated scenario family",
		"(pinned failing defaults; rerun any fuzzer seed with -gen)",
		16, FuzzScenarios}
)

// cells evaluates every determinism model on every family member, at the
// given production seed and parameter overrides (zero-valued except for a
// regenerated T-FUZZ).
func (f familyTable) cells(o Options, seed int64, params scenario.Params) ([]Cell, error) {
	var specs []cellSpec
	for _, name := range f.scenarios {
		s, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, m := range record.AllModels() {
			specs = append(specs, cellSpec{s, m, seed, params})
		}
	}
	return evalCells(f.name, o, specs)
}

// renderFamily prints a family table.
func renderFamily(f familyTable, cells []Cell) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%s\n\n", f.title, f.note)
	fmt.Fprintf(&b, "%-*s %-12s %9s %9s %6s %7s %7s %-16s\n", f.width,
		"scenario", "model", "overhead", "logbytes", "DF", "DE", "DU", "replay cause")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-*s %-12s %8.2fx %9d %6.3f %7.3f %7.3f %-16s\n", f.width,
			c.Scenario, c.Model, c.Overhead, c.LogBytes, c.DF, c.DE, c.DU, c.ReplayCause)
	}
	return b.String()
}

// TableDynoKV evaluates every determinism model on the replication family
// (T-DYNO): the distributed-bug counterpart of Fig. 2. It extends the §4
// case study from one distributed scenario to a family whose root causes
// are cross-node and timing-dependent — quorum non-overlap, premature
// tombstone GC, abandoned hinted handoff.
func TableDynoKV(o Options) ([]Cell, error) { return dynoTable.cells(o, 0, nil) }

// RenderTableDynoKV prints T-DYNO.
func RenderTableDynoKV(cells []Cell) string { return renderFamily(dynoTable, cells) }

// TableDisk evaluates every determinism model on the durability family
// (T-DISK): crash-restart bugs on the simulated disk — torn-WAL
// corruption, fsync-reordering loss of acknowledged writes, and
// snapshot+log resurrection of a deleted key. The fsync-reordering row is
// the table's point: output and failure determinism satisfy their
// contracts with a device-loss explanation while debug determinism
// reproduces the real reordering.
func TableDisk(o Options) ([]Cell, error) { return diskTable.cells(o, 0, nil) }

// RenderTableDisk prints T-DISK.
func RenderTableDisk(cells []Cell) string { return renderFamily(diskTable, cells) }

// TableFuzz evaluates every determinism model on the generated fuzz
// family (T-FUZZ). gen selects the generator seed: nil keeps each
// family's pinned failing default; any value — including 0 and the
// negative raw seeds go test -fuzz can report — regenerates all four
// programs from that seed AND runs them at the scheduler seed the fuzz
// targets derive from it (progen.ForSeed), so a fuzzer-found execution
// reproduces exactly through the full evaluation pipeline.
func TableFuzz(o Options, gen *int64) ([]Cell, error) {
	if gen == nil {
		return fuzzTable.cells(o, 0, nil)
	}
	p := progen.ForSeed(*gen)
	return fuzzTable.cells(o, p.Seed, p.Params)
}

// RenderTableFuzz prints T-FUZZ.
func RenderTableFuzz(cells []Cell, gen *int64) string {
	f := fuzzTable
	if gen != nil {
		f.note = fmt.Sprintf("(all four templates regenerated from generator seed %d)", progen.Normalize(*gen))
	}
	return renderFamily(f, cells)
}

// PlaneRow is one scenario's classification-accuracy measurement (T-PLANE).
type PlaneRow struct {
	Scenario string
	Accuracy float64
	Verdicts []string
}

// TablePlane evaluates the control-plane classifier against each
// scenario's ground truth, supporting the paper's reliance on [3]'s "high
// accuracy" claim.
func TablePlane(o Options) ([]PlaneRow, error) {
	o = o.withDefaults()
	var subjects []*scenario.Scenario
	for _, s := range o.corpus() {
		if len(s.PlaneTruth) == 0 {
			continue
		}
		subjects = append(subjects, s)
	}
	rows, err := grid(o, len(subjects), func(i int) (PlaneRow, error) {
		s := subjects[i]
		v := s.Exec(scenario.ExecOptions{Seed: s.DefaultSeed + 101})
		c := plane.ClassifyTrace(v.Trace, plane.Options{})
		acc, verdicts := plane.Accuracy(c, v.Machine.Sites(), s.PlaneTruth)
		return PlaneRow{Scenario: s.Name, Accuracy: acc, Verdicts: verdicts}, nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Scenario < rows[j].Scenario })
	return rows, nil
}

// RenderTablePlane prints T-PLANE.
func RenderTablePlane(rows []PlaneRow) string {
	var b strings.Builder
	b.WriteString("Table PLANE — control/data-plane classification accuracy vs ground truth\n\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s accuracy = %.2f\n", r.Scenario, r.Accuracy)
		for _, v := range r.Verdicts {
			fmt.Fprintf(&b, "    %s\n", v)
		}
	}
	return b.String()
}

// TableDU renders the corpus-wide DU = DF×DE comparison (T-DU) from Fig. 1
// rows, including the shrink-enabled failure-determinism row that shows
// DE > 1.
func TableDU(rows []Fig1Row, shrink Cell) string {
	var b strings.Builder
	b.WriteString("Table DU — §3.2 debugging utility (DU = DF × DE), corpus means\n\n")
	fmt.Fprintf(&b, "%-14s %8s %8s %8s\n", "model", "DF", "DE", "DU")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %8.3f %8.3f %8.3f\n", r.Model.String(), r.MeanDF, r.MeanDE, r.MeanDU)
	}
	fmt.Fprintf(&b, "\nESD-style shrinking (failure determinism on %s):\n", shrink.Scenario)
	fmt.Fprintf(&b, "%-14s %8.3f %8.3f %8.3f  (DE > 1: synthesized execution shorter than original)\n",
		"failure+shrink", shrink.DF, shrink.DE, shrink.DU)
	return b.String()
}

// ShrinkCell evaluates failure determinism with shrink parameters on the
// overflow scenario, demonstrating DE > 1 (§3.2's execution-synthesis
// observation).
func ShrinkCell(o Options) (Cell, error) {
	o = o.withDefaults()
	s, err := workload.ByName("overflow")
	if err != nil {
		return Cell{}, err
	}
	// A single cell: here the replay search itself is the parallel axis.
	ev, err := core.Evaluate(s, record.Failure, core.Options{
		Ctx:          o.Ctx,
		ReplayBudget: o.ReplayBudget,
		ShrinkParams: []scenario.Params{{"requests": 2}, {"requests": 4}},
		Workers:      o.Workers,
	})
	if err != nil {
		return Cell{}, err
	}
	return cellOf(ev), nil
}

// StatScenarios lists the deadlock family measured by T-STAT: the corpus
// scenarios whose root cause is a lock-order inversion, which is the bug
// class detlint's static lockorder analysis can implicate ahead of time.
var StatScenarios = []string{"deadlock", "fuzz-deadlock"}

// statSearchSeeds are the inference seeds T-STAT aggregates over: one
// seed would measure a single search trajectory; summing a handful shows
// the expected saving rather than a lucky draw.
var statSearchSeeds = []int64{7, 8, 9, 10, 11, 12, 13, 14}

// statTriageOffset starts the triage scan just past the failing default
// seed, so the triage evidence comes from runs other than the one being
// debugged — the static-seeding claim is that suspects known *before* the
// failure speed up its reconstruction.
const statTriageOffset = 1

// statIterations measures the family at a single lock round per thread.
// At the corpus defaults (several rounds) nearly every schedule deadlocks
// and the search accepts its first candidate — no search to speed up. One
// round makes the inversion window rare, which is the regime the paper
// cares about and the regime where deferring deadlock-blind PCT
// candidates pays.
const statIterations = 1

// statRecordScan bounds the scan for a failing production seed at the
// T-STAT parameterization.
const statRecordScan = 64

// StatRow is one deadlock-family measurement of static search seeding
// (T-STAT): the same failure-determinism replay with and without
// detlint-derived lock-order suspects.
type StatRow struct {
	Scenario string
	// Suspects is the number of suspect lock pairs triage produced;
	// TriageRuns is the executions the triage scan spent.
	Suspects   int
	TriageRuns int
	// BaseAttempts/BaseWorkSteps measure the unseeded search;
	// SeededAttempts/SeededWorkSteps the suspect-seeded one. Each is
	// summed over statSearchSeeds.
	BaseAttempts    int
	SeededAttempts  int
	BaseWorkSteps   uint64
	SeededWorkSteps uint64
	// Identical reports that for every search seed both searches
	// accepted the bit-identical execution (same note, same event
	// stream): the seeding changed how fast the answer was found, not
	// the answer.
	Identical bool
}

// TableStat measures how static lock-order triage seeds the
// failure-determinism search (T-STAT). For each deadlock-family scenario
// it triages default-parameter runs into suspects, records a failing
// production run at the rare-inversion parameterization under the failure
// model, and replays it twice per search seed — without and with the
// suspects — comparing total search work and accepted executions.
func TableStat(o Options) ([]StatRow, error) {
	o = o.withDefaults()
	return grid(o, len(StatScenarios), func(i int) (StatRow, error) {
		name := StatScenarios[i]
		s, err := workload.ByName(name)
		if err != nil {
			return StatRow{}, err
		}
		suspects, triageRuns := sites.TriageSeeds(s, s.DefaultSeed+statTriageOffset, 0, nil)
		if len(suspects) == 0 {
			return StatRow{}, fmt.Errorf("stat %s: triage produced no suspects", name)
		}
		// The two family members name their round-count parameter
		// differently; setting both keys configures either.
		params := scenario.Params{"iterations": statIterations, "iters": statIterations}
		failSeed, ok := statFailingSeed(s, params)
		if !ok {
			return StatRow{}, fmt.Errorf("stat %s: no failing seed in %d tries", name, statRecordScan)
		}
		rec, _, err := core.Record(s, record.Failure, core.Options{
			Ctx:    o.Ctx,
			Seed:   failSeed,
			Params: params,
		})
		if err != nil {
			return StatRow{}, fmt.Errorf("stat %s: %w", name, err)
		}
		row := StatRow{
			Scenario:   name,
			Suspects:   len(suspects),
			TriageRuns: triageRuns,
			Identical:  true,
		}
		for _, seed := range statSearchSeeds {
			ro := replay.Options{
				Ctx:        o.Ctx,
				Budget:     o.ReplayBudget,
				SearchSeed: seed,
				Workers:    1,
			}
			base := replay.Replay(s, rec, ro)
			ro.Suspects = suspects
			seeded := replay.Replay(s, rec, ro)
			if base.Err != nil {
				return row, base.Err
			}
			if seeded.Err != nil {
				return row, seeded.Err
			}
			if !base.Ok || !seeded.Ok {
				return StatRow{}, fmt.Errorf("stat %s seed %d: search failed (base %q, seeded %q)",
					name, seed, base.Note, seeded.Note)
			}
			row.BaseAttempts += base.Attempts
			row.SeededAttempts += seeded.Attempts
			row.BaseWorkSteps += base.WorkSteps
			row.SeededWorkSteps += seeded.WorkSteps
			row.Identical = row.Identical && sameAccepted(base, seeded)
		}
		return row, nil
	})
}

// statFailingSeed scans for a production seed that exhibits the failure
// at the T-STAT parameterization.
func statFailingSeed(s *scenario.Scenario, p scenario.Params) (int64, bool) {
	for i := int64(0); i < statRecordScan; i++ {
		seed := s.DefaultSeed + i
		v := s.Exec(scenario.ExecOptions{Seed: seed, Params: p})
		if failed, _ := s.CheckFailure(v); failed {
			return seed, true
		}
	}
	return 0, false
}

// sameAccepted reports whether two replays accepted the bit-identical
// execution: same search note (which encodes the accepted candidate's
// original plan index) and same event stream.
func sameAccepted(a, b *replay.Result) bool {
	return a.Ok && b.Ok && a.Note == b.Note &&
		trace.EventsEqual(a.View.Trace, b.View.Trace, false)
}

// RenderTableStat prints T-STAT.
func RenderTableStat(rows []StatRow) string {
	var b strings.Builder
	b.WriteString("Table STAT — static lock-order triage seeding the failure-determinism search\n")
	b.WriteString("(identical = seeded search accepted the bit-identical execution)\n\n")
	fmt.Fprintf(&b, "%-16s %8s %7s %14s %20s %10s\n",
		"scenario", "suspects", "triage", "attempts", "worksteps", "identical")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %8d %7d %6d -> %5d %9d -> %8d %10v\n",
			r.Scenario, r.Suspects, r.TriageRuns,
			r.BaseAttempts, r.SeededAttempts,
			r.BaseWorkSteps, r.SeededWorkSteps, r.Identical)
	}
	return b.String()
}

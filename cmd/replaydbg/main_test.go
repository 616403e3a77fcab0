package main

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"debugdet"
)

// The test binary doubles as the CLI: when re-exec'd with the marker
// environment variable it runs main() on its own arguments, so the tests
// below exercise real exit codes without a separate build step.
func TestMain(m *testing.M) {
	if os.Getenv("REPLAYDBG_BE_CLI") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI re-execs the test binary as replaydbg and returns its combined
// output and exit status.
func runCLI(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "REPLAYDBG_BE_CLI=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("replaydbg %v: %v", args, err)
	}
	return string(out), ee.ExitCode()
}

// TestRecordSpillCreatesDir: -spill pointing at a missing nested directory
// creates it, and info reads the result back.
func TestRecordSpillCreatesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "deep", "nested", "spill")
	out, code := runCLI(t, "record", "-scenario", "bank", "-spill", dir)
	if code != 0 {
		t.Fatalf("record -spill exited %d:\n%s", code, out)
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.ddmf")); err != nil {
		t.Fatalf("no manifest in created spill dir: %v", err)
	}
	out, code = runCLI(t, "info", "-in", dir)
	if code != 0 || !strings.Contains(out, "flight recording: bank") {
		t.Fatalf("info on fresh spill dir exited %d:\n%s", code, out)
	}
}

// TestInfoOnARecordingFile pins what info prints for a checkpointed
// perfect recording file: its summary, checkpoints and segment table.
func TestInfoOnARecordingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bank.ddrc")
	if out, code := runCLI(t, "record", "-scenario", "bank", "-ckpt", "64", "-out", path); code != 0 {
		t.Fatalf("record exited %d:\n%s", code, out)
	}
	const want = `bank/perfect seed=0 events=415 full=415 sched=0 bytes=4343 overhead=2.64x failed=true sig="bank:imbalance"
checkpoints: 6 (399 bytes)
segments: 7
    0  [       0,       64)        64 events
    1  [      64,      128)        64 events
    2  [     128,      192)        64 events
    3  [     192,      256)        64 events
    4  [     256,      320)        64 events
    5  [     320,      384)        64 events
    6  [     384,      415)        31 events
`
	if out, code := runCLI(t, "info", "-in", path); code != 0 || out != want {
		t.Fatalf("info exited %d:\n%s\nwant:\n%s", code, out, want)
	}
}

// TestShowNamesReferencedStreams: show lists the recording's stream table
// as id=name, and an output recording names only the streams of its
// outputs (bank's xfer.pick, stream 0, is an input).
func TestShowNamesReferencedStreams(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bank.ddrc")
	if out, code := runCLI(t, "record", "-scenario", "bank", "-model", "output", "-out", path); code != 0 {
		t.Fatalf("record exited %d:\n%s", code, out)
	}
	const want = `bank/output seed=0 events=415 full=2 sched=0 bytes=22 overhead=1.01x failed=true sig="bank:imbalance"
streams: 1=bank.total 2=bank.initial
`
	if out, code := runCLI(t, "show", "-in", path); code != 0 || !strings.HasPrefix(out, want) {
		t.Fatalf("show exited %d:\n%s\nwant it to start:\n%s", code, out, want)
	}
}

// TestInfoBadSpillDirIsUsageError: a directory that is not a readable
// spill directory — empty, or holding a truncated manifest — exits with
// status 2 and a diagnostic, like a nonexistent path; never a panic.
func TestInfoBadSpillDirIsUsageError(t *testing.T) {
	empty := t.TempDir()
	out, code := runCLI(t, "info", "-in", empty)
	if code != 2 || !strings.Contains(out, "not a flight-recorder spill directory") {
		t.Fatalf("info on empty dir exited %d:\n%s", code, out)
	}

	partial := t.TempDir()
	if err := os.WriteFile(filepath.Join(partial, "manifest.ddmf"), []byte("DDMF"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code = runCLI(t, "info", "-in", partial)
	if code != 2 || !strings.Contains(out, "not a flight-recorder spill directory") {
		t.Fatalf("info on truncated manifest exited %d:\n%s", code, out)
	}

	out, code = runCLI(t, "info", "-in", filepath.Join(empty, "nope"))
	if code != 2 {
		t.Fatalf("info on nonexistent path exited %d:\n%s", code, out)
	}
}

// TestRecordRejectsNegativeKnobs: negative -ring/-retain are rejected
// before the spill directory is created.
func TestRecordRejectsNegativeKnobs(t *testing.T) {
	for _, tc := range []struct{ flag, field string }{
		{"-ring", "RingSegments"},
		{"-retain", "Retention"},
	} {
		dir := filepath.Join(t.TempDir(), "spill")
		out, code := runCLI(t, "record", "-scenario", "bank", "-spill", dir, tc.flag, "-1")
		if code == 0 || !strings.Contains(out, tc.field) {
			t.Fatalf("record %s -1 exited %d:\n%s", tc.flag, code, out)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Fatalf("rejected record still created %s", dir)
		}
	}
}

// TestRunMatchesTheStandaloneCommands pins `run` against what cmd/hyperkv
// and cmd/dynokv printed for the same seeds and parameters before they
// were folded into it (their flag defaults were the scenarios' defaults;
// only hyperkv's wording of the no-failure line is not kept).
func TestRunMatchesTheStandaloneCommands(t *testing.T) {
	const staleread = "acked=18 reads=18 stale=1/0 resurrected=0 rewrites=0 lost=0 abandoned=0 wipedHints=0 handoffs=0 outcome=ok causes=[weak-quorum]\n"
	for _, tc := range []struct {
		was  string
		args []string
		want string
	}{
		{"hyperkv -seed 19",
			[]string{"run", "-scenario", "hyperkv-dataloss", "-seed", "19"},
			"run: acked=48 dumped=47 raceLost=1 crashed=0 oom=0 outcome=ok\n" +
				"events=1233 cycles=69577\n" +
				"FAILURE hyperkv:dataloss — root causes present: [migration-race]\n"},
		{"dynokv -scenario staleread -sweep 50",
			[]string{"run", "-scenario", "dynokv-staleread", "-sweep", "50"},
			"seed=8    FAIL " + staleread + "seed=9    FAIL " + staleread + "2/50 seeds failed\n"},
		{"hyperkv -clients 4 -rows 32",
			[]string{"run", "-scenario", "hyperkv-dataloss", "-param", "clients=4", "-param", "rows=32"},
			"run: acked=128 dumped=128 raceLost=0 crashed=0 oom=0 outcome=ok\n" +
				"events=2793 cycles=156054\n" +
				"no failure observed\n"},
	} {
		if out, code := runCLI(t, tc.args...); code != 0 || out != tc.want {
			t.Errorf("%v (was %s) exited %d:\n%s\nwant:\n%s", tc.args, tc.was, code, out, tc.want)
		}
	}
	if out, code := runCLI(t, "run", "-scenario", "bank", "-param", "threads"); code != 2 {
		t.Errorf("run -param threads exited %d, want a usage error:\n%s", code, out)
	}
}

// TestEvalAllModels: -model all prints one summary line per determinism
// model, in the order of the paper's Fig. 1, each equal to what
// Engine.Evaluate reports with default options at the same budget.
func TestEvalAllModels(t *testing.T) {
	out, code := runCLI(t, "eval", "-scenario", "dynokv-losthint", "-model", "all", "-budget", "60")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	models := debugdet.Models()
	if code != 0 || len(lines) != len(models) {
		t.Fatalf("eval -model all exited %d with %d lines:\n%s", code, len(lines), out)
	}
	eng := debugdet.New()
	s, err := eng.ByName("dynokv-losthint")
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range models {
		ev, err := eng.Evaluate(context.Background(), s, m, debugdet.Options{ReplayBudget: 60})
		if err != nil {
			t.Fatal(err)
		}
		if want := ev.Summary(); lines[i] != want {
			t.Errorf("line %d is\n%q, want\n%q", i, lines[i], want)
		}
	}
}

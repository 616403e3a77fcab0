package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/transcript.golden from the current output")

// transcriptSteps is a session over every verb the other tests do not
// drive: record a checkpointed run, seek into it, a scripted debug session
// (seek, inspection, backward stepping, run to the end), a debug session
// read from stdin, replay, and the run verb at a seed, over a seed sweep
// and with parameter overrides. $DIR stands for a fresh temporary
// directory.
var transcriptSteps = []struct {
	stdin string
	args  []string
}{
	{"", []string{"record", "-scenario", "bank", "-ckpt", "64", "-out", "$DIR/bank.ddrc"}},
	{"", []string{"seek", "-in", "$DIR/bank.ddrc", "-to", "200"}},
	{"", []string{"debug", "-in", "$DIR/bank.ddrc",
		"-script", "seek 200;threads;cells;locks;chans;back 5;where;step 3;trace 6;ckpts;run;quit"}},
	{"step 2;threads;quit\n", []string{"debug", "-scenario", "overflow"}},
	{"", []string{"replay", "-scenario", "bank", "-in", "$DIR/bank.ddrc"}},
	{"", []string{"run", "-scenario", "hyperkv-dataloss", "-seed", "19"}},
	{"", []string{"run", "-scenario", "dynokv-staleread", "-sweep", "20"}},
	{"", []string{"run", "-scenario", "hyperkv-dataloss", "-param", "clients=4", "-param", "rows=32"}},
}

// TestTranscriptGolden runs transcriptSteps in order and compares each
// command, its exit status and its combined output, with the temporary
// directory written as $DIR, against testdata/transcript.golden. Every
// run is reproducible from its seed, so the transcript is exact.
func TestTranscriptGolden(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	for _, st := range transcriptSteps {
		args := make([]string, len(st.args))
		for i, a := range st.args {
			args[i] = strings.ReplaceAll(a, "$DIR", dir)
		}
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "REPLAYDBG_BE_CLI=1")
		cmd.Stdin = strings.NewReader(st.stdin)
		out, err := cmd.CombinedOutput()
		code := 0
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("replaydbg %v: %v", args, err)
		}
		fmt.Fprintf(&b, "$ replaydbg %s\n", strings.Join(st.args, " "))
		b.WriteString(strings.ReplaceAll(string(out), dir, "$DIR"))
		fmt.Fprintf(&b, "[exit %d]\n", code)
	}
	golden := filepath.Join("testdata", "transcript.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("transcript differs from %s (rerun with -update and review the diff):\n%s", golden, got)
	}
}

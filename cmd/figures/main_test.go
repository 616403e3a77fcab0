package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"

	"debugdet/figures"
)

// The test binary doubles as the CLI: when re-exec'd with the marker
// environment variable it runs main() on its own arguments, so the tests
// below exercise real exit codes without a separate build step.
func TestMain(m *testing.M) {
	if os.Getenv("FIGURES_BE_CLI") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI re-execs the test binary as figures and returns its stdout,
// stderr and exit status.
func runCLI(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FIGURES_BE_CLI=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if err == nil {
		return stdout.String(), stderr.String(), 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("figures %v: %v", args, err)
	}
	return stdout.String(), stderr.String(), ee.ExitCode()
}

// TestUnknownArtifactIsUsageError: a table or figure outside the registry
// exits 2 naming the bad value and the known ones, and prints no artifact
// — it used to exit 0 with empty output.
func TestUnknownArtifactIsUsageError(t *testing.T) {
	for bad, args := range map[string][]string{
		`"bogus"`: {"-table", "bogus"},
		`"fig3"`:  {"-fig", "3"},
	} {
		stdout, stderr, code := runCLI(t, args...)
		if code != 2 || stdout != "" {
			t.Errorf("figures %v exited %d with stdout %q, want 2 and none", args, code, stdout)
		}
		for _, want := range append([]string{bad}, figures.Names()...) {
			if !strings.Contains(stderr, want) {
				t.Errorf("figures %v: stderr %q does not mention %s", args, stderr, want)
			}
		}
	}
}

// TestFigAndTableCombine: -fig and -table select independently.
func TestFigAndTableCombine(t *testing.T) {
	stdout, stderr, code := runCLI(t, "-fig", "1", "-table", "du", "-budget", "60")
	if code != 0 {
		t.Fatalf("exited %d:\n%s", code, stderr)
	}
	fig1, du := strings.Index(stdout, "Figure 1 —"), strings.Index(stdout, "Table DU —")
	if fig1 < 0 || du < fig1 {
		t.Fatalf("want Figure 1 then Table DU, got:\n%s", stdout)
	}
}

// TestEveryNameRenders: each registry entry is reachable from the command
// line and prints something.
func TestEveryNameRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every artifact")
	}
	for _, name := range figures.Names() {
		stdout, stderr, code := runCLI(t, "-table", name, "-budget", "60")
		if code != 0 || strings.TrimSpace(stdout) == "" {
			t.Errorf("figures -table %s exited %d with %d bytes of output:\n%s", name, code, len(stdout), stderr)
		}
	}
}

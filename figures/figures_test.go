package figures

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/figures_all.golden from the current output")

const goldenPath = "testdata/figures_all.golden"

// renderAll renders every artifact from one Run, as `figures -all` does.
func renderAll(workers int) (map[string]string, error) {
	run := New(Options{Workers: workers}, nil)
	out := make(map[string]string)
	for _, name := range Names() {
		text, err := run.Render(name)
		if err != nil {
			return nil, err
		}
		out[name] = text
	}
	return out, nil
}

// sequential is the Workers: 1 rendering, shared by the tests that read
// it.
var sequential = sync.OnceValues(func() (map[string]string, error) { return renderAll(1) })

// allText joins the artifacts the way cmd/figures prints them.
func allText(arts map[string]string) string {
	var b strings.Builder
	for _, name := range Names() {
		fmt.Fprintln(&b, arts[name])
	}
	return b.String()
}

// TestAllGolden pins `figures -all` byte for byte, sequentially and across
// a worker pool: the numbers EXPERIMENTS.md discusses cannot move, and a
// refactor's "output unchanged" is this test passing. Regenerate the file
// with `go test ./figures -run TestAllGolden -update` only when an
// experiment is meant to change.
func TestAllGolden(t *testing.T) {
	seq, err := sequential()
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(goldenPath, []byte(allText(seq)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	par, err := renderAll(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		workers int
		arts    map[string]string
	}{{1, seq}, {4, par}} {
		if got := allText(tc.arts); got != string(want) {
			t.Errorf("Workers %d: output differs from %s at %s", tc.workers, goldenPath, firstDiff(got, string(want)))
		}
	}
}

// firstDiff names the first line where two texts part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got  %q\n want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("line %d: one output ends (got %d lines, want %d)", min(len(g), len(w))+1, len(g), len(w))
}

// TestUnknownArtifact: a name outside the registry is an error that names
// it and lists the known ones.
func TestUnknownArtifact(t *testing.T) {
	_, err := New(Options{}, nil).Render("bogus")
	if err == nil {
		t.Fatal("Render(bogus) succeeded")
	}
	for _, want := range append([]string{`"bogus"`}, Names()...) {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
}

// docBlocks returns, per `<!-- figures: NAME -->` marker in a markdown
// document, the code block that follows it — fenced, or indented by four
// spaces — as its lines with trailing space dropped.
func docBlocks(t *testing.T, doc string) map[string][]string {
	t.Helper()
	blocks := make(map[string][]string)
	lines := strings.Split(doc, "\n")
	for i := 0; i < len(lines); i++ {
		name, ok := strings.CutPrefix(lines[i], "<!-- figures: ")
		if !ok {
			continue
		}
		name = strings.TrimSuffix(name, " -->")
		for i++; i < len(lines) && strings.TrimSpace(lines[i]) == ""; i++ {
		}
		var block []string
		if i < len(lines) && strings.HasPrefix(lines[i], "```") {
			for i++; i < len(lines) && !strings.HasPrefix(lines[i], "```"); i++ {
				block = append(block, strings.TrimRight(lines[i], " "))
			}
		} else {
			for ; i < len(lines) && strings.HasPrefix(lines[i], "    "); i++ {
				block = append(block, strings.TrimRight(lines[i][4:], " "))
			}
		}
		if len(block) == 0 {
			t.Fatalf("marker for %q is not followed by a code block", name)
		}
		blocks[name] = block
	}
	return blocks
}

// TestExperimentsDocQuotesGolden: every block of EXPERIMENTS.md marked as
// quoting an artifact appears in that artifact's rendering, line for line
// and contiguously, so the document cannot drift from the command.
func TestExperimentsDocQuotesGolden(t *testing.T) {
	doc, err := os.ReadFile("../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	arts, err := sequential()
	if err != nil {
		t.Fatal(err)
	}
	blocks := docBlocks(t, string(doc))
	if len(blocks) == 0 {
		t.Fatal("EXPERIMENTS.md has no <!-- figures: NAME --> markers")
	}
	for name, block := range blocks {
		text, ok := arts[name]
		if !ok {
			t.Errorf("EXPERIMENTS.md marks a block as %q, which is not an artifact", name)
			continue
		}
		var hay strings.Builder
		hay.WriteString("\n")
		for _, l := range strings.Split(text, "\n") {
			hay.WriteString(strings.TrimRight(l, " ") + "\n")
		}
		if strings.Contains(hay.String(), "\n"+strings.Join(block, "\n")+"\n") {
			continue
		}
		t.Errorf("EXPERIMENTS.md's %s block is not a contiguous run of the artifact's lines", name)
		for _, l := range block {
			if !strings.Contains(hay.String(), "\n"+l+"\n") {
				t.Errorf("  the artifact prints no line %q", l)
			}
		}
	}
}

// TestDesignIndexListsEveryArtifact: DESIGN.md §3 has a row for every
// artifact, and each row names TestAllGolden as its pin.
func TestDesignIndexListsEveryArtifact(t *testing.T) {
	doc, err := os.ReadFile("../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(string(doc), "\n")
	for _, name := range Names() {
		cmd := "`figures -table " + name
		if n, ok := strings.CutPrefix(name, "fig"); ok {
			cmd = "`figures -fig " + n
		}
		found := false
		for _, row := range rows {
			if strings.HasPrefix(row, "|") && strings.Contains(row, cmd) {
				found = true
				if !strings.Contains(row, "`TestAllGolden`") {
					t.Errorf("DESIGN.md §3 row for %s does not name TestAllGolden", name)
				}
			}
		}
		if !found {
			t.Errorf("DESIGN.md §3 has no row for artifact %q (%s`)", name, cmd)
		}
	}
}

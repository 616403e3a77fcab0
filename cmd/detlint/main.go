// Command detlint runs the repository's determinism-lint suite (DESIGN.md
// §8) over package patterns:
//
//	go run ./cmd/detlint ./...
//	go run ./cmd/detlint -only nondet,lockorder ./internal/vm
//
// The suite checks exhaustive handling of trace event/value kinds
// (evexhaustive), determinism-contract violations in the VM and replay
// packages (nondet), inconsistent lock acquisition orders across thread
// bodies (lockorder), and godoc coverage of the public surface (docs). The
// SDK boundary for commands and examples is a row of the root package's
// guards_test.go, which `go test .` runs.
//
// Findings print one per line as file:line:col: analyzer: message, and the
// command exits 1 when any exist — CI runs it as the static-analysis job.
// A run failure (pattern typo, unbuildable source) exits 2.
package main

import (
	"flag"
	"fmt"
	"os"

	"debugdet/internal/lint"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer filter (default: the whole suite)")
	list := flag.Bool("list", false, "list the suite's analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: detlint [-only a,b] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := lint.ByName(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "detlint: %v\n", err)
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "detlint: %v\n", err)
		os.Exit(2)
	}
	findings, err := lint.Run(wd, patterns, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "detlint: %v\n", err)
		os.Exit(2)
	}
	if len(findings) > 0 {
		lint.Print(os.Stderr, findings)
		fmt.Fprintf(os.Stderr, "detlint: %d findings\n", len(findings))
		os.Exit(1)
	}
	fmt.Println("detlint: clean")
}

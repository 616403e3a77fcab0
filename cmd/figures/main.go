// Command figures regenerates the paper's figures and tables (see the
// experiment index in DESIGN.md) and prints them as text. EXPERIMENTS.md
// records this command's output next to the paper's numbers.
//
// Usage:
//
//	figures -all
//	figures -fig 1
//	figures -fig 2
//	figures -table NAME           # any artifact; figures -h lists the names
//	figures -table fuzz -gen 1234 # rerun a generator seed from go test -fuzz
//	figures -budget 100           # bound inference attempts per cell
//	figures -workers 4            # cell-grid parallelism (default GOMAXPROCS, 1 = sequential)
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"debugdet/figures"
)

func main() {
	known := figures.Names()
	fig := flag.Int("fig", 0, "figure to regenerate (1 or 2)")
	table := flag.String("table", "", "table to regenerate ("+strings.Join(known, ", ")+")")
	all := flag.Bool("all", false, "regenerate everything")
	budget := flag.Int("budget", 0, "inference budget per cell (default 200)")
	workers := flag.Int("workers", 0, "concurrent cells (default GOMAXPROCS; results are identical for any value)")
	genVal := flag.Int64("gen", 0, "generator seed for -table fuzz (omit for the pinned failing defaults)")
	ckpt := flag.Int64("ckpt", 0, "checkpoint interval for perfect-model cells (0 = off; affects -table overhead)")
	flag.Parse()
	// Distinguish "-gen 0" (a real fuzzer seed) from an absent flag.
	var gen *int64
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "gen" {
			gen = genVal
		}
	})

	var names []string
	if *all {
		names = known
	} else {
		if *fig != 0 {
			names = append(names, fmt.Sprintf("fig%d", *fig))
		}
		if *table != "" {
			names = append(names, *table)
		}
	}
	if len(names) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	// Print in -all order whatever the flag order; an unknown name sorts
	// first, so it is reported before any experiment runs.
	slices.SortStableFunc(names, func(a, b string) int {
		return slices.Index(known, a) - slices.Index(known, b)
	})

	run := figures.New(figures.Options{ReplayBudget: *budget, Workers: *workers, CheckpointInterval: *ckpt}, gen)
	for _, name := range names {
		out, err := run.Render(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			if !slices.Contains(known, name) {
				os.Exit(2) // a usage error, like a bad flag
			}
			os.Exit(1)
		}
		fmt.Println(out)
	}
}

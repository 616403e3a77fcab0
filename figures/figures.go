package figures

import "debugdet/internal/eval"

// Options tunes experiment cost: inference budget per cell, corpus
// restriction, grid worker count, checkpoint interval, and a cancellation
// context.
type Options = eval.Options

// Run is one pass over the experiment set. Render(name) generates one
// artifact and returns the text `figures` prints for it; the grids that
// several artifacts share (Fig. 1 under fig1 and du, Fig. 2 under fig2, df
// and overhead) are evaluated once per Run. An unknown name is an error
// listing Names().
type Run = eval.Run

// New prepares a run. A nil gen keeps T-FUZZ's pinned failing defaults;
// any pointed-to value — including 0 and negative raw fuzzer seeds —
// regenerates all four programs from that generator seed: the hook for
// rerunning a seed found by go test -fuzz through the full evaluation
// pipeline.
func New(o Options, gen *int64) *Run { return eval.NewRun(o, gen) }

// Names lists every artifact in the order `figures -all` prints them.
func Names() []string { return eval.Names() }

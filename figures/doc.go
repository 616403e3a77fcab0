// Package figures is the public experiment harness of the debugdet SDK:
// it regenerates every figure and table of the paper's evaluation (see
// DESIGN.md §3 for the experiment index) over the built-in corpus.
//
// The experiment set is one registry. Names lists the artifacts in the
// order `figures -all` prints them; New(opts, gen) prepares a Run and
// Run.Render(name) generates one artifact and returns its text, sharing
// between artifacts the grids they have in common. cmd/figures is flag
// parsing over exactly these three calls, and the package's TestAllGolden
// pins every artifact's text byte for byte. For ad-hoc grids over
// user-registered scenarios use Engine.EvaluateBatch instead — this
// package exists for the paper's fixed experiment set, and its output is
// text; structured cells come from EvaluateBatch.
//
// Architecture: DESIGN.md §3 (experiment index) lists every figure and
// table this package regenerates and the paper claims each one checks.
package figures

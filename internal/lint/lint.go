// Package lint assembles the repository's static-analysis suite — the
// determinism lints DESIGN.md §8 describes — and drives it over package
// patterns. cmd/detlint is the CLI wrapper; CI runs the suite over ./...
// as the static-analysis job.
//
// The suite:
//
//   - evexhaustive: every trace.EventKind / trace.ValueKind switch handles
//     every kind, or carries a justified //lint:exhaustive-default;
//   - nondet: no wall-clock time, math/rand, raw goroutines or
//     map-iteration-order-dependent loops inside the deterministic
//     packages;
//   - lockorder: intra-body lockset analysis over vm.Thread Lock/Unlock
//     sequences; inconsistent acquisition orders across thread bodies are
//     reported as potential ABBA deadlocks;
//   - docs: the public packages carry package comments and exported-symbol
//     godoc (the former cmd/docslint, on the shared driver).
//
// Import and naming rules — the SDK boundary for commands and examples,
// and the architecture verdicts — are not analyzers: they are rows of
// the root package's guards_test.go, which needs no type information.
package lint

import (
	"fmt"
	"go/token"
	"io"
	"sort"
	"strings"

	"debugdet/internal/lint/analysis"
	"debugdet/internal/lint/docs"
	"debugdet/internal/lint/evexhaustive"
	"debugdet/internal/lint/load"
	"debugdet/internal/lint/lockorder"
	"debugdet/internal/lint/nondet"
)

// Analyzers returns the full suite, in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		evexhaustive.Analyzer,
		nondet.Analyzer,
		lockorder.Analyzer,
		docs.Analyzer,
	}
}

// ByName resolves a comma-separated analyzer filter against the suite.
func ByName(names string) ([]*analysis.Analyzer, error) {
	if names == "" {
		return Analyzers(), nil
	}
	byName := make(map[string]*analysis.Analyzer)
	var all []string
	for _, a := range Analyzers() {
		byName[a.Name] = a
		all = append(all, a.Name)
	}
	var out []*analysis.Analyzer
	for _, n := range strings.Split(names, ",") {
		a, ok := byName[strings.TrimSpace(n)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have %s)", n, strings.Join(all, ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

// Finding is one diagnostic with its source analyzer and resolved
// position.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the finding the way compilers do, so editors can jump to
// it.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Run loads the packages matching patterns and applies the analyzers,
// returning every finding sorted by position. A non-nil error means the
// run itself failed (unknown pattern, unparsable or untypeable source) —
// distinct from findings, which are problems in otherwise-valid code.
func Run(dir string, patterns []string, analyzers []*analysis.Analyzer) ([]Finding, error) {
	l, err := load.NewLoader(dir)
	if err != nil {
		return nil, err
	}
	targets, err := l.Patterns(patterns)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	for _, t := range targets {
		pkg, err := l.Load(t.Dir, t.ImportPath)
		if err != nil {
			return nil, err
		}
		if len(pkg.TypeErrors) > 0 {
			return nil, fmt.Errorf("type errors in %s (fix the build first): %v",
				t.ImportPath, pkg.TypeErrors[0])
		}
		fs, err := RunPackage(l, pkg, analyzers)
		if err != nil {
			return nil, err
		}
		findings = append(findings, fs...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}

// RunPackage applies the analyzers to one loaded package.
func RunPackage(l *load.Loader, pkg *load.Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      l.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			PkgPath:   pkg.PkgPath,
			Dir:       pkg.Dir,
		}
		name := a.Name
		pass.Report = func(d analysis.Diagnostic) {
			findings = append(findings, Finding{
				Analyzer: name,
				Pos:      l.Fset.Position(d.Pos),
				Message:  d.Message,
			})
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s on %s: %v", a.Name, pkg.PkgPath, err)
		}
	}
	return findings, nil
}

// Print writes findings one per line.
func Print(w io.Writer, findings []Finding) {
	for _, f := range findings {
		fmt.Fprintln(w, f.String())
	}
}

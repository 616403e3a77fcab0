// Package analysistest runs detlint analyzers over golden source fixtures,
// mirroring golang.org/x/tools/go/analysis/analysistest: fixture files
// carry "// want `regexp`" comments on the lines where diagnostics are
// expected, and the harness fails the test on any unmatched expectation or
// unexpected diagnostic.
//
// Fixtures live under <testdir>/testdata/src/<pkgpath>; imports between
// fixture packages resolve inside that root first, then against the
// enclosing module, then the standard library.
package analysistest

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"debugdet/internal/lint/analysis"
	"debugdet/internal/lint/load"
)

// Run applies the analyzer to each fixture package (a path under
// testdata/src) and checks the diagnostics against the fixtures' want
// comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgpaths ...string) {
	t.Helper()
	root := filepath.Join(testdata, "src")
	l, err := load.NewLoader(testdata)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	l.ExtraRoots = []load.Root{{Prefix: "", Dir: root}}
	for _, pkgpath := range pkgpaths {
		dir := filepath.Join(root, filepath.FromSlash(pkgpath))
		pkg, err := l.Load(dir, pkgpath)
		if err != nil {
			t.Errorf("analysistest: %s: %v", pkgpath, err)
			continue
		}
		for _, terr := range pkg.TypeErrors {
			t.Errorf("analysistest: %s: type error: %v", pkgpath, terr)
		}
		findings, err := runOne(l, pkg, a)
		if err != nil {
			t.Errorf("analysistest: %s: %v", pkgpath, err)
			continue
		}
		check(t, l.Fset, pkg.Files, a.Name, findings)
	}
}

// runOne applies one analyzer to one package.
func runOne(l *load.Loader, pkg *load.Package, a *analysis.Analyzer) ([]analysis.Diagnostic, error) {
	var out []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      l.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.TypesInfo,
		PkgPath:   pkg.PkgPath,
		Dir:       pkg.Dir,
		Report:    func(d analysis.Diagnostic) { out = append(out, d) },
	}
	if _, err := a.Run(pass); err != nil {
		return nil, err
	}
	return out, nil
}

// expectation is one want comment: a pattern expected to match a
// diagnostic on a specific line.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile("`([^`]*)`")

// check compares diagnostics against want comments.
func check(t *testing.T, fset *token.FileSet, files []*ast.File, name string, findings []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				ms := wantRE.FindAllStringSubmatch(rest, -1)
				if len(ms) == 0 {
					t.Errorf("%s:%d: malformed want comment (patterns go in backquotes): %s",
						pos.Filename, pos.Line, c.Text)
					continue
				}
				for _, m := range ms {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Errorf("%s:%d: bad want pattern: %v", pos.Filename, pos.Line, err)
						continue
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
				}
			}
		}
	}
	for _, d := range findings {
		pos := fset.Position(d.Pos)
		if !matchWant(wants, pos, d.Message) {
			t.Errorf("%s:%d: unexpected %s diagnostic: %s", pos.Filename, pos.Line, name, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no %s diagnostic matching %q", w.file, w.line, name, w.pattern)
		}
	}
}

// matchWant consumes the first unmatched expectation on the diagnostic's
// line whose pattern matches.
func matchWant(wants []*expectation, pos token.Position, msg string) bool {
	for _, w := range wants {
		if w.file == pos.Filename && w.line == pos.Line && w.pattern.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}

// Testdata returns the conventional fixture root for a test file's
// package: ./testdata.
func Testdata() string { return "testdata" }

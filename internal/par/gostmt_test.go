package par

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoStatementsStayInPar keeps a fifth pool from growing back: outside
// this package no non-test file of the module may contain a go statement.
// Fan out through Ordered instead — the worker contract (DESIGN.md §0) is
// then inherited rather than restated. The VM hosts its threads on
// coroutines (DESIGN.md §1), so internal/vm may not name a channel type or
// select either: a second baton beside iter.Pull would need one. bench/ is
// its own module (the ruler, not the system) and testdata holds lint
// fixtures.
func TestGoStatementsStayInPar(t *testing.T) {
	const root = "../.."
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel == "bench" || d.Name() == "testdata" || (strings.HasPrefix(d.Name(), ".") && rel != ".") {
				return filepath.SkipDir
			}
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(rel))
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") || dir == "internal/par" {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		ast.Inspect(f, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.GoStmt:
				t.Errorf("%s: go statement outside internal/par; range over par.Ordered instead", fset.Position(n.Pos()))
			case *ast.ChanType, *ast.SelectStmt:
				if dir == "internal/vm" {
					t.Errorf("%s: channel in internal/vm; threads are parked and resumed by coroutine switches alone", fset.Position(n.Pos()))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("walked only %d files from %s: the module root moved", files, root)
	}
}

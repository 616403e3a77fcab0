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
// this package and the VM's thread hosts, no non-test file of the module
// may contain a go statement. Fan out through Ordered instead — the worker
// contract (DESIGN.md §0) is then inherited rather than restated. bench/ is
// its own module (the ruler, not the system) and testdata holds lint
// fixtures.
func TestGoStatementsStayInPar(t *testing.T) {
	const root = "../.."
	allowed := map[string]bool{"internal/par": true, "internal/vm": true}
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
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") || allowed[filepath.ToSlash(filepath.Dir(rel))] {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				t.Errorf("%s: go statement outside internal/par and internal/vm; range over par.Ordered instead", fset.Position(g.Pos()))
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

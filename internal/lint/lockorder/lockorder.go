// Package lockorder implements the determinism suite's static deadlock
// triage: an intra-body lockset analysis over the VM thread API. Every
// function body (including scenario thread closures) is walked in source
// order, t.Lock/t.Unlock calls maintain a symbolic lockset, and the
// acquisition orders of all bodies are merged into a lock-order graph;
// opposing gate-disjoint edges — lock A held while taking B in one body,
// B held while taking A in another — are reported as potential ABBA
// deadlocks.
//
// The analyzer is deliberately intra-body: it does not propagate lock
// arguments through call sites, so a factory closure instantiated with
// (a,b) and (b,a) is not flagged; the VM reports such a deadlock when a
// run reaches it.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/types"

	"debugdet/internal/lint/analysis"
)

// Directive is the annotation name that waives a reported cycle.
const Directive = "lockorder-ok"

// ThreadTypes are the named types whose Lock/Unlock methods the analyzer
// tracks, as "pkgpath.TypeName" of the pointer's element type. Tests
// override this to point at fixture types.
var ThreadTypes = []string{"debugdet/internal/vm.Thread"}

// Analyzer is the lockorder pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "thread bodies must acquire locks in a consistent global order; " +
		"opposing acquisition orders are potential ABBA deadlocks",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	g := NewGraph()
	dirsByFile := make(map[string]*analysis.Directives)
	for _, f := range pass.Files {
		dirsByFile[pass.Fset.Position(f.Pos()).Filename] = analysis.FileDirectives(pass.Fset, f)
		collectBodies(pass, f, g)
	}
	for _, c := range g.Cycles() {
		if waived(pass, dirsByFile, c) {
			continue
		}
		e1, e2 := c.Edges[0], c.Edges[1]
		pass.Reportf(e1.Tag,
			"potential ABBA deadlock: %s acquires %s while holding %s, but %s acquires %s while holding %s (annotate //lint:%s <why> to waive)",
			e1.Body.Name, e1.To.Name, e1.From.Name,
			e2.Body.Name, e2.To.Name, e2.From.Name, Directive)
	}
	return nil, nil
}

// waived reports whether any edge of the cycle carries the waiver
// directive.
func waived(pass *analysis.Pass, dirsByFile map[string]*analysis.Directives, c Cycle) bool {
	for _, e := range c.Edges {
		dirs := dirsByFile[pass.Fset.Position(e.Tag).Filename]
		if dirs == nil {
			continue
		}
		if d, ok := dirs.At(pass.Fset, e.Tag, Directive); ok {
			if d.Justification == "" {
				pass.Reportf(e.Tag, "//lint:%s needs a justification", Directive)
			}
			return true
		}
	}
	return false
}

// collectBodies finds every function body in the file and feeds its
// acquisition sequence into the graph. Function literals are separate
// bodies: each closure is a candidate thread body.
func collectBodies(pass *analysis.Pass, f *ast.File, g *Graph) {
	var enclosing string
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			enclosing = n.Name.Name
			if n.Body != nil {
				walkBody(pass, g, body(pass, n.Body, n.Name.Name), enclosing, n.Body)
			}
			return true
		case *ast.FuncLit:
			line := pass.Fset.Position(n.Pos()).Line
			name := fmt.Sprintf("%s.func@%d", enclosing, line)
			walkBody(pass, g, body(pass, n.Body, name), enclosing, n.Body)
			return true
		}
		return true
	})
}

// body builds the graph context for one function body.
func body(pass *analysis.Pass, b *ast.BlockStmt, name string) BodyID {
	return BodyID{ID: b, Name: name}
}

// walkBody simulates the body's Lock/Unlock sequence in source order,
// without descending into nested function literals (they are their own
// bodies).
func walkBody(pass *analysis.Pass, g *Graph, id BodyID, enclosing string, b *ast.BlockStmt) {
	ast.Inspect(b, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body != b {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, lockArg, ok := threadLockCall(pass, call)
		if !ok {
			return true
		}
		key := lockKey(pass, enclosing, lockArg)
		switch name {
		case "Lock":
			g.Acquire(id, key, call.Pos())
		case "Unlock":
			g.Release(id, key)
		}
		return true
	})
}

// threadLockCall matches t.Lock(site, lock) / t.Unlock(site, lock) on a
// tracked thread type, returning the method name and the lock argument.
func threadLockCall(pass *analysis.Pass, call *ast.CallExpr) (string, ast.Expr, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "Unlock") || len(call.Args) != 2 {
		return "", nil, false
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok {
		return "", nil, false
	}
	t := tv.Type
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named := analysis.NamedType(t)
	if named == nil {
		return "", nil, false
	}
	path := analysis.TypePath(named)
	for _, want := range ThreadTypes {
		if path == want {
			return sel.Sel.Name, call.Args[1], true
		}
	}
	return "", nil, false
}

// lockKey canonicalizes a lock expression: plain identifiers key on their
// types.Object (shared captures match across sibling closures); composite
// expressions key on their text, scoped to the enclosing top-level
// function so unrelated functions cannot collide.
func lockKey(pass *analysis.Pass, enclosing string, expr ast.Expr) Key {
	if id, ok := expr.(*ast.Ident); ok {
		if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
			return Key{Obj: obj, Name: id.Name}
		}
	}
	s := types.ExprString(expr)
	return Key{Obj: "expr:" + enclosing + ":" + s, Name: s}
}

// Package nondet implements the determinism suite's nondeterminism
// analyzer: inside the deterministic packages — the VM and everything
// whose output must be a pure function of (program, seed, inputs) — it
// forbids wall-clock reads, math/rand, raw go statements and
// map-iteration-order-dependent loops.
//
// Determinism here is a contract, not a convention: replay equivalence,
// checkpoint restore and the bit-identical parallel-search guarantees all
// assume that re-executing with the same seed reproduces the same events.
// A single time.Now or unsorted map walk on a result path silently breaks
// every one of them.
//
// Escapes are explicit and audited: a file hosting a seeded PRNG is listed
// in AllowRand with a justification, and an individual statement is
// annotated //lint:nondet-ok <why>.
package nondet

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"strings"

	"debugdet/internal/lint/analysis"
)

// Directive is the annotation name that justifies an individual finding.
const Directive = "nondet-ok"

// DetPackages are the import paths under the determinism contract. Tests
// override this to point at fixture packages.
var DetPackages = []string{
	"debugdet/internal/vm",
	"debugdet/internal/replay",
	"debugdet/internal/record",
	"debugdet/internal/checkpoint",
	"debugdet/internal/flightrec",
	"debugdet/internal/wire",
	"debugdet/internal/simdisk",
	"debugdet/internal/simnet",
	"debugdet/internal/dynokv",
}

// AllowRand maps "pkgpath/file.go" to the justification for that file
// importing math/rand. The two VM files host the machine's seeded PRNGs
// (scheduler randomness and vm.HashValue-style derivations) — every
// generator they construct is rand.New(rand.NewSource(seed)), so the
// randomness is part of the deterministic input, not an escape from it.
var AllowRand = map[string]string{
	"debugdet/internal/vm/sched.go":    "seeded schedulers: rand.New(rand.NewSource(seed)) per execution",
	"debugdet/internal/vm/observer.go": "newRand helper: the single audited constructor for seeded PRNGs",
}

// wallClock are the time-package functions that read or wait on the host
// clock.
var wallClock = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// Analyzer is the nondet pass.
var Analyzer = &analysis.Analyzer{
	Name: "nondet",
	Doc: "deterministic packages must not read wall clocks, use math/rand, " +
		"spawn raw goroutines or depend on map iteration order",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	det := false
	for _, p := range DetPackages {
		if pass.PkgPath == p {
			det = true
			break
		}
	}
	if !det {
		return nil, nil
	}
	for _, f := range pass.Files {
		dirs := analysis.FileDirectives(pass.Fset, f)
		checkImports(pass, f)
		checkFile(pass, dirs, f)
	}
	return nil, nil
}

// checkImports flags math/rand imports outside the allowlisted PRNG files.
func checkImports(pass *analysis.Pass, f *ast.File) {
	for _, imp := range f.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if p != "math/rand" && p != "math/rand/v2" {
			continue
		}
		file := path.Base(pass.Fset.Position(imp.Pos()).Filename)
		if _, ok := AllowRand[pass.PkgPath+"/"+file]; ok {
			continue
		}
		pass.Reportf(imp.Pos(),
			"deterministic package %s imports %s; use the audited seeded sources (vm.newRand) or allowlist the file in nondet.AllowRand with a justification",
			pass.PkgPath, p)
	}
}

// checkFile walks every statement list so range loops can see their
// following statement (the collect-then-sort idiom).
func checkFile(pass *analysis.Pass, dirs *analysis.Directives, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, dirs, n)
		case *ast.GoStmt:
			if !annotated(pass, dirs, n.Pos()) {
				pass.Reportf(n.Pos(),
					"raw go statement in deterministic package %s: host goroutine scheduling is outside the recorded schedule; use VM threads or annotate //lint:%s <why>",
					pass.PkgPath, Directive)
			}
		case *ast.BlockStmt:
			checkStmtList(pass, dirs, n.List)
			return true
		case *ast.CaseClause:
			checkStmtList(pass, dirs, n.Body)
			return true
		case *ast.CommClause:
			checkStmtList(pass, dirs, n.Body)
			return true
		}
		return true
	})
}

// checkCall flags wall-clock reads.
func checkCall(pass *analysis.Pass, dirs *analysis.Directives, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" || !wallClock[sel.Sel.Name] {
		return
	}
	if annotated(pass, dirs, call.Pos()) {
		return
	}
	pass.Reportf(call.Pos(),
		"wall-clock call time.%s in deterministic package %s: use the machine's virtual clock, or annotate //lint:%s <why>",
		sel.Sel.Name, pass.PkgPath, Directive)
}

// checkStmtList examines range-over-map loops with access to the statement
// that follows each loop.
func checkStmtList(pass *analysis.Pass, dirs *analysis.Directives, stmts []ast.Stmt) {
	for i, stmt := range stmts {
		rng, ok := stmt.(*ast.RangeStmt)
		if !ok || !isMapType(pass, rng.X) {
			continue
		}
		if rng.Key == nil && rng.Value == nil {
			continue // iteration count only; order cannot be observed
		}
		if annotated(pass, dirs, rng.Pos()) {
			continue
		}
		var next ast.Stmt
		if i+1 < len(stmts) {
			next = stmts[i+1]
		}
		if orderInsensitive(pass, rng, next) {
			continue
		}
		pass.Reportf(rng.Pos(),
			"map iteration in deterministic package %s has an order-sensitive body: sort the keys first, or annotate //lint:%s <why>",
			pass.PkgPath, Directive)
	}
}

// annotated reports whether a justified nondet-ok directive governs pos.
// An annotation without a justification is itself a finding: the escape
// hatch must document why the site is safe.
func annotated(pass *analysis.Pass, dirs *analysis.Directives, pos token.Pos) bool {
	d, ok := dirs.At(pass.Fset, pos, Directive)
	if !ok {
		return false
	}
	if d.Justification == "" {
		pass.Reportf(pos, "//lint:%s needs a justification", Directive)
	}
	return true
}

// isMapType reports whether expr has map type.
func isMapType(pass *analysis.Pass, expr ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// orderInsensitive reports whether the loop body consists only of
// operations whose combined effect does not depend on iteration order:
// writes into maps, deletes, commutative integer accumulation, and the
// collect-then-sort idiom (appends followed immediately by a sort of the
// collected slice).
func orderInsensitive(pass *analysis.Pass, rng *ast.RangeStmt, next ast.Stmt) bool {
	var appendTargets []types.Object
	for _, stmt := range rng.Body.List {
		switch s := stmt.(type) {
		case *ast.AssignStmt:
			if !safeAssign(pass, s, &appendTargets) {
				return false
			}
		case *ast.IncDecStmt:
			if !isIntExpr(pass, s.X) {
				return false
			}
		case *ast.ExprStmt:
			call, ok := s.X.(*ast.CallExpr)
			if !ok || !isDelete(pass, call) {
				return false
			}
		default:
			return false
		}
	}
	if len(appendTargets) > 0 && !sortsAll(pass, next, appendTargets) {
		return false
	}
	return true
}

// safeAssign classifies one assignment inside a map-range body.
func safeAssign(pass *analysis.Pass, s *ast.AssignStmt, appendTargets *[]types.Object) bool {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return false
	}
	lhs, rhs := s.Lhs[0], s.Rhs[0]
	switch s.Tok.String() {
	case "=", ":=":
		// Map writes commute across distinct keys, and ranges visit each
		// key once.
		if ix, ok := lhs.(*ast.IndexExpr); ok && isMapType(pass, ix.X) {
			return true
		}
		// x = append(x, ...): safe only when the result is sorted right
		// after the loop.
		if call, ok := rhs.(*ast.CallExpr); ok {
			if fn, ok := call.Fun.(*ast.Ident); ok && fn.Name == "append" {
				if id, ok := lhs.(*ast.Ident); ok {
					if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
						*appendTargets = append(*appendTargets, obj)
						return true
					}
				}
			}
		}
		return false
	case "+=", "-=", "|=", "&=", "^=":
		// Commutative on integers.
		return isIntExpr(pass, lhs)
	}
	return false
}

// sortsAll reports whether next is a sort call covering every appended
// variable (a single sort call mentioning each target).
func sortsAll(pass *analysis.Pass, next ast.Stmt, targets []types.Object) bool {
	es, ok := next.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil ||
		(obj.Pkg().Path() != "sort" && obj.Pkg().Path() != "slices") {
		return false
	}
	mentioned := make(map[types.Object]bool)
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if o := pass.TypesInfo.ObjectOf(id); o != nil {
					mentioned[o] = true
				}
			}
			return true
		})
	}
	for _, t := range targets {
		if !mentioned[t] {
			return false
		}
	}
	return true
}

// isDelete recognizes the builtin delete on a map.
func isDelete(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "delete" || len(call.Args) != 2 {
		return false
	}
	return isMapType(pass, call.Args[0])
}

// isIntExpr reports whether expr has integer type.
func isIntExpr(pass *analysis.Pass, expr ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// Package evexhaustive implements the determinism suite's exhaustiveness
// analyzer: every switch over a registered enum type (trace.EventKind,
// trace.ValueKind, vm's opCode) must handle every constant of the type, or
// carry a default clause annotated with a justified
// //lint:exhaustive-default directive.
//
// The repo threads EventKind by hand through codec, JSON, race, plane,
// recorder, value-replay, flight-recorder and VM cost/apply/inspection
// switches; a new event family that silently skips one of those layers is
// exactly the bug class this analyzer turns into a compile-time error
// (PR 7 wired five disk kinds through every one of those switches by
// hand).
package evexhaustive

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"debugdet/internal/lint/analysis"
)

// Directive is the annotation name that justifies a partial switch.
const Directive = "exhaustive-default"

// EnumTypes lists the enum types whose switches must be exhaustive, as
// "pkgpath.TypeName". Tests override it to point at fixture types.
var EnumTypes = []string{
	"debugdet/internal/trace.EventKind",
	"debugdet/internal/trace.ValueKind",
	"debugdet/internal/vm.opCode",
}

// Analyzer is the evexhaustive pass.
var Analyzer = &analysis.Analyzer{
	Name: "evexhaustive",
	Doc: "switches over trace event/value kinds (and vm op codes) must handle " +
		"every constant or justify their default with //lint:exhaustive-default",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	enums := make(map[string]bool, len(EnumTypes))
	for _, e := range EnumTypes {
		enums[e] = true
	}
	for _, f := range pass.Files {
		dirs := analysis.FileDirectives(pass.Fset, f)
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			tv, ok := pass.TypesInfo.Types[sw.Tag]
			if !ok {
				return true
			}
			named := analysis.NamedType(tv.Type)
			if named == nil || !enums[analysis.TypePath(named)] {
				return true
			}
			checkSwitch(pass, dirs, sw, named)
			return true
		})
	}
	return nil, nil
}

// checkSwitch verifies one enum switch.
func checkSwitch(pass *analysis.Pass, dirs *analysis.Directives, sw *ast.SwitchStmt, enum *types.Named) {
	wanted := enumConstants(enum)
	var defaultClause *ast.CaseClause
	for _, stmt := range sw.Body.List {
		cc := stmt.(*ast.CaseClause)
		if cc.List == nil {
			defaultClause = cc
			continue
		}
		for _, expr := range cc.List {
			tv, ok := pass.TypesInfo.Types[expr]
			if !ok || tv.Value == nil {
				continue
			}
			if k, exact := constant.Uint64Val(tv.Value); exact {
				delete(wanted, k)
			}
		}
	}
	if len(wanted) == 0 {
		return
	}
	missing := missingNames(wanted)
	typeName := enum.Obj().Name()
	if dir, ok := directiveFor(pass, dirs, sw, defaultClause); ok {
		if dir.Justification == "" {
			pos := sw.Pos()
			if defaultClause != nil {
				pos = defaultClause.Pos()
			}
			pass.Reportf(pos,
				"//lint:%s needs a justification for the unhandled %s constants (%s)",
				Directive, typeName, missing)
		}
		return
	}
	if defaultClause != nil {
		pass.Reportf(defaultClause.Pos(),
			"default clause hides unhandled %s constants %s; handle them or annotate the default with //lint:%s <why>",
			typeName, missing, Directive)
		return
	}
	pass.Reportf(sw.Pos(),
		"switch on %s does not handle %s; add cases or annotate the switch with //lint:%s <why>",
		typeName, missing, Directive)
}

// directiveFor looks for the exhaustive-default annotation on the switch
// statement or on the default clause (nil when the switch has none).
func directiveFor(pass *analysis.Pass, dirs *analysis.Directives, sw *ast.SwitchStmt, def *ast.CaseClause) (analysis.Directive, bool) {
	if def != nil {
		if d, ok := dirs.At(pass.Fset, def.Pos(), Directive); ok {
			return d, true
		}
	}
	return dirs.At(pass.Fset, sw.Pos(), Directive)
}

// enumConstants collects the constants of the enum declared in its
// package, keyed by value so aliased constants collapse. Unexported
// sentinels (kindCount-style) are excluded when the enum has exported
// constants; fully-unexported enums include everything.
func enumConstants(enum *types.Named) map[uint64]string {
	scope := enum.Obj().Pkg().Scope()
	hasExported := false
	for _, name := range scope.Names() {
		if c, ok := scope.Lookup(name).(*types.Const); ok &&
			types.Identical(c.Type(), enum) && token.IsExported(name) {
			hasExported = true
			break
		}
	}
	out := make(map[uint64]string)
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), enum) {
			continue
		}
		if hasExported && !token.IsExported(name) {
			continue
		}
		if k, exact := constant.Uint64Val(c.Val()); exact {
			if _, dup := out[k]; !dup {
				out[k] = name
			}
		}
	}
	return out
}

// missingNames renders the unhandled constants deterministically, in value
// order.
func missingNames(wanted map[uint64]string) string {
	keys := make([]uint64, 0, len(wanted))
	for k := range wanted {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	names := make([]string, len(keys))
	for i, k := range keys {
		names[i] = wanted[k]
	}
	return fmt.Sprintf("[%s]", strings.Join(names, " "))
}

package debugdet_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// guard is one architecture rule: a construct the tree may not use
// outside the paths that need it. A path ending in "/" is a directory
// and every file under it; any other path is one file. Paths are
// slash-separated and relative to the repository root.
type guard struct {
	name      string // the subtest, and the fixture directory testdata/guards/<name>
	match     matcher
	in        []string // the paths the rule covers; nil is the whole tree
	allow     []string // paths inside in that may match; each must cover a match
	skipTests bool     // _test.go files are not covered
	why       string   // what a match means, and where the verdict is
}

// matcher reports whether a node is the forbidden construct, given its
// file's imports by qualifier.
type matcher func(n ast.Node, imps map[string]string) bool

// Import paths the rows name.
const (
	vmPkg     = "debugdet/internal/vm"
	recordPkg = "debugdet/internal/record"
	planePkg  = "debugdet/internal/plane"
)

// guards is every architecture rule. A later verdict adds a row here and
// a fixture under testdata/guards, not a check anywhere else. Name
// patterns are those of matchAny: "*Store*" is any identifier that
// contains Store.
var guards = []guard{
	{name: "store-twins", match: ident("*SeekStore*", "*SegmentedStore*"),
		allow: []string{"bench/", "engine.go", "scaling_test.go", "sdk_flightrec_test.go"},
		why:   "a *Store twin is back: Seek, ReplaySegmented and Debug take the store; only the two forwarders bench/ compiles against remain (DESIGN.md §0 \"One entry point per verb\")"},
	{name: "debug-store-twins", match: ident("*NewStoreDebugger*", "*DebugStore*"),
		why: "a *Store twin is back: Debug takes the store (DESIGN.md §0 \"One entry point per verb\")"},
	{name: "store-adapter", match: call0("Store"),
		why: "the Recording.Store() adapter is back: a Recording is a segment store (DESIGN.md §0 \"One entry point per verb\")"},
	{name: "launcher", match: sel(vmPkg, "New", "Restore"), skipTests: true,
		allow: []string{"bench/", "internal/scenario/", "sim/"},
		why:   "launch machines through Scenario.Exec, Start or Restore (DESIGN.md §5 \"The launcher\")"},
	{name: "recycle", match: sel(vmPkg, "Recycle"),
		allow: []string{"internal/scenario/"},
		why:   "launch machines through Scenario.Exec, Start or Restore: only the launcher recycles one (DESIGN.md §5 \"The launcher\")"},
	{name: "feed-entry-literal", match: lit(vmPkg, "FeedEntry"), skipTests: true,
		allow: []string{"internal/checkpoint/"},
		why:   "a second per-kind feed rule: build feed entries with checkpoint.FeedEntryOf (DESIGN.md §5 \"One derivation\")"},
	{name: "infer-restores", match: imports("debugdet/internal/checkpoint"),
		in:  []string{"internal/infer/"},
		why: "internal/infer imports internal/checkpoint: candidates run whole, never restored (EXPERIMENTS.md \"The pruning verdict\")"},
	{name: "pruning", match: ident("ForkInterval", "LogRounds", "SchedSim", "NewSchedSim", "SchedRound", "forkPath", "TableFork", "CheckForkEquivalence"),
		why: "equivalence pruning is back: it pruned nothing (EXPERIMENTS.md \"The pruning verdict\")"},
	{name: "fork-switch", match: keyedTrue("Fork", "ForkReplay"),
		allow: []string{"bench/", "fork_inert_test.go"},
		why:   "a fork switch is set: it is ignored (only bench/ and TestForkOptionsAreInert set it; EXPERIMENTS.md \"The pruning verdict\")"},
	{name: "ring-segments", match: ident("RingSegments"),
		allow: []string{"bench/", "internal/flightrec/recorder.go"},
		why:   "the flight recorder's ring size is used: it is ignored, a sealed segment spills at once (DESIGN.md §6 \"Segments and rotation\")"},
	{name: "rcse-knobs", match: ident("ThresholdSelector", "SuspectSelector", "RaceSampleRate", "InvariantCost"),
		why: "an RCSE knob is back: record.RCSEPolicy records the declared streams and the schedule only (EXPERIMENTS.md \"The trigger verdict\")"},
	{name: "code-selection", match: ident("*CodeSelector*", "*DisableCodeSelection*"),
		why: "code-based selection is back: it recorded nothing a replay forces (DESIGN.md §2 \"The replayer reads only the recording\")"},
	{name: "rcse-triggers", match: ident("*RCSEOptions*", "*TrainInvariants*", "*RaceTrigger*", "*InvariantTrigger*", "*NewTrigger*", "*NewMonitor*", "*StreamSelector*"),
		why: "an RCSE trigger is back: no trigger ever changed a replay (EXPERIMENTS.md \"The trigger verdict\")"},
	{name: "seeding", match: ident("Suspects", "TriageSeeds", "TableStat", "prioritize"),
		why: "search seeding is back: triage cost more work than seeding saved (EXPERIMENTS.md \"The seeding verdict\")"},
	{name: "seeding-sites", match: imports("debugdet/internal/lint/sites"),
		why: "search seeding is back: triage cost more work than seeding saved (EXPERIMENTS.md \"The seeding verdict\")"},
	{name: "control-streams", match: ident("ControlStreams"), skipTests: true,
		in:  []string{"internal/replay/", "internal/infer/", "internal/eval/"},
		why: "a replayer reads Scenario.ControlStreams: a replay forces what the recording holds (DESIGN.md §2 \"The replayer reads only the recording\")"},
	{name: "live-recorder", match: sel(recordPkg, "NewRecorder"), skipTests: true,
		allow: []string{"bench/"},
		why:   "a live-attached recorder is back: record a plain run and project it with record.Project (DESIGN.md §2 \"Every recording is a projection of one run\")"},
	{name: "snapshot-size", match: ident("*SnapshotSize*"),
		allow: []string{"internal/checkpoint/", "internal/record/"},
		why:   "a third snapshot sizing rule: only internal/checkpoint and internal/record price a snapshot (DESIGN.md §6 \"Wire formats\")"},
	{name: "event-estimate", match: ident("*FullEventBytes*"),
		why: "the per-event byte estimate is back: a recorder charges trace.EventSize, what the codec writes (DESIGN.md §2 \"One byte count\")"},
	{name: "event-size", match: ident("*EventSize*"),
		allow: []string{"internal/trace/", "internal/record/", "internal/flightrec/"},
		why:   "a second event pricing: only internal/record and internal/flightrec charge trace.EventSize (DESIGN.md §2 \"One byte count\")"},
	{name: "sched-flag", match: ident("SchedComplete", "LevelSched", "PolicyFunc"),
		why: "a schedule flag or fidelity level is back: a recording holds a schedule only under RCSE (DESIGN.md §2 \"Only RCSE stores a schedule\")"},
	{name: "rcse-package", match: imports("debugdet/internal/rcse"),
		why: "internal/rcse is back: the RCSE policy is record.RCSEPolicy (DESIGN.md §2 \"Only RCSE stores a schedule\")"},
	{name: "replay-loop", match: sel(vmPkg, "NewReplayScheduler"), skipTests: true,
		in: []string{"internal/replay/"}, allow: []string{"internal/replay/seek.go"},
		why: "a second candidate loop in internal/replay: forced replays are one infer.Search call (DESIGN.md §2 \"Four replayers, one loop\")"},
	{name: "blob-alias", match: ident("Bytes_"),
		why: "an aliasing blob constructor is back: a VBytes payload lives in Value.Str, built by trace.Blob (DESIGN.md §1 \"Trace growth and reuse\")"},
	{name: "blob-payload", match: chain("Val", "Bytes"),
		why: "a second blob payload is back: a VBytes payload lives in Value.Str, built by trace.Blob (DESIGN.md §1 \"Trace growth and reuse\")"},
	{name: "feed-copy", match: method("FeedPlan", "Feed"),
		why: "a copying feed pass is back: FeedPlan.Carve reorders the records' entries in place (DESIGN.md §5 \"One derivation\")"},
	{name: "plane-truth", match: ident("PlaneTruth", "TablePlane", "PlaneRow"),
		why: "the plane classifier's truth maps are back: it chose RCSE's streams worse than the declared set (EXPERIMENTS.md \"The plane verdict\")"},
	{name: "plane-accuracy", match: sel(planePkg, "*Accuracy*"),
		why: "the plane classifier's accuracy is back: it chose RCSE's streams worse than the declared set (EXPERIMENTS.md \"The plane verdict\")"},
	{name: "plane-import", match: imports(planePkg),
		allow: []string{"bench/"},
		why:   "the plane classifier is back in the library: it chose RCSE's streams worse than the declared set (EXPERIMENTS.md \"The plane verdict\")"},
	{name: "value-prediction", match: ident("ValKnown"),
		why: "value prediction is back in the VM: a peek names an op's event, and value replay checks each value as the machine emits it (DESIGN.md §2 \"Value replay walks its log\")"},
	{name: "strict-replay", match: ident("*SketchScheduler*", "Fallback", "Diverged"),
		why: "a replay scheduler that takes over on divergence is back: a forced replay runs the thread its log names or diverges, and a departure is a failed candidate (DESIGN.md §2 \"Four replayers, one loop\")"},
	{name: "varint-narrowing", match: convertsVarint(),
		why: "a decoded varint is converted unchecked: read it through wire.Reader.Int, Int64 or trace.ReadObjID, which refuse a value the type cannot hold (DESIGN.md §6 \"Wire formats\")"},
	{name: "sdk-purity", match: imports("debugdet/internal/..."),
		in: []string{"cmd/", "examples/"}, allow: []string{"cmd/detlint/"},
		why: "commands and examples import only the public SDK, never debugdet/internal: an internal capability a demo needs is a missing public API; cmd/detlint fronts internal/lint and is not an SDK client (DESIGN.md §0)"},
}

// ident matches an identifier whose name matches one of the patterns.
func ident(patterns ...string) matcher {
	return func(n ast.Node, _ map[string]string) bool {
		id, ok := n.(*ast.Ident)
		return ok && matchAny(id.Name, patterns)
	}
}

// imports matches an import of one of the paths; a path ending in "/..."
// also matches every package below it.
func imports(paths ...string) matcher {
	return func(n ast.Node, _ map[string]string) bool {
		spec, ok := n.(*ast.ImportSpec)
		if !ok {
			return false
		}
		p, _ := strconv.Unquote(spec.Path.Value)
		for _, want := range paths {
			if p == want {
				return true
			}
			if dir, ok := strings.CutSuffix(want, "/..."); ok && (p == dir || strings.HasPrefix(p, dir+"/")) {
				return true
			}
		}
		return false
	}
}

// sel matches pkg.Name, where the file imports pkg under the qualifier
// and Name matches one of the patterns.
func sel(pkg string, patterns ...string) matcher {
	return func(n ast.Node, imps map[string]string) bool {
		s, ok := n.(*ast.SelectorExpr)
		return ok && qualifies(s.X, pkg, imps) && matchAny(s.Sel.Name, patterns)
	}
}

// lit matches a composite literal of pkg.Type, or of a slice, array or
// map of them, whose elements are pkg.Type literals too.
func lit(pkg, typ string) matcher {
	isType := sel(pkg, typ)
	return func(n ast.Node, imps map[string]string) bool {
		cl, ok := n.(*ast.CompositeLit)
		if !ok {
			return false
		}
		for t := cl.Type; t != nil; {
			switch e := t.(type) {
			case *ast.ArrayType:
				t = e.Elt
			case *ast.MapType:
				t = e.Value
			case *ast.StarExpr:
				t = e.X
			default:
				return isType(t, imps)
			}
		}
		return false
	}
}

// method matches the declaration of method name on recv or *recv.
func method(recv, name string) matcher {
	return func(n ast.Node, _ map[string]string) bool {
		fd, ok := n.(*ast.FuncDecl)
		if !ok || fd.Recv == nil || len(fd.Recv.List) == 0 || fd.Name.Name != name {
			return false
		}
		t := fd.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		id, ok := t.(*ast.Ident)
		return ok && id.Name == recv
	}
}

// keyedTrue matches Key: true in a composite literal, for one of the keys.
func keyedTrue(keys ...string) matcher {
	return func(n ast.Node, _ map[string]string) bool {
		kv, ok := n.(*ast.KeyValueExpr)
		if !ok {
			return false
		}
		k, kok := kv.Key.(*ast.Ident)
		v, vok := kv.Value.(*ast.Ident)
		return kok && vok && v.Name == "true" && matchAny(k.Name, keys)
	}
}

// call0 matches x.name() with no arguments.
func call0(name string) matcher {
	return func(n ast.Node, _ map[string]string) bool {
		c, ok := n.(*ast.CallExpr)
		if !ok || len(c.Args) != 0 {
			return false
		}
		s, ok := c.Fun.(*ast.SelectorExpr)
		return ok && s.Sel.Name == name
	}
}

// chain matches the selector chain x.a.b.
func chain(a, b string) matcher {
	return func(n ast.Node, _ map[string]string) bool {
		s, ok := n.(*ast.SelectorExpr)
		if !ok || s.Sel.Name != b {
			return false
		}
		inner, ok := s.X.(*ast.SelectorExpr)
		return ok && inner.Sel.Name == a
	}
}

// convertsVarint matches an integer conversion applied directly to a
// .Uvarint() or .Varint() call.
func convertsVarint() matcher {
	return func(n ast.Node, _ map[string]string) bool {
		c, ok := n.(*ast.CallExpr)
		if !ok || len(c.Args) != 1 {
			return false
		}
		typ, ok := c.Fun.(*ast.Ident)
		if !ok {
			return false
		}
		switch typ.Name {
		case "int", "int8", "int16", "int32", "int64", "uint", "uint8", "uint16", "uint32", "uint64", "uintptr", "byte", "rune":
		default:
			return false
		}
		arg, ok := c.Args[0].(*ast.CallExpr)
		if !ok || len(arg.Args) != 0 {
			return false
		}
		s, ok := arg.Fun.(*ast.SelectorExpr)
		return ok && (s.Sel.Name == "Uvarint" || s.Sel.Name == "Varint")
	}
}

// qualifies reports whether x is the qualifier the file imports pkg as.
func qualifies(x ast.Expr, pkg string, imps map[string]string) bool {
	id, ok := x.(*ast.Ident)
	return ok && imps[id.Name] == pkg
}

// matchAny reports whether name matches one of the patterns: "X" is the
// name X and "*X*" any name containing X.
func matchAny(name string, patterns []string) bool {
	for _, p := range patterns {
		if name == p || strings.HasPrefix(p, "*") && strings.Contains(name, strings.Trim(p, "*")) {
			return true
		}
	}
	return false
}

// under reports the first of paths that covers file, or "".
func under(file string, paths []string) string {
	for _, p := range paths {
		if p == file || strings.HasSuffix(p, "/") && strings.HasPrefix(file, p) {
			return p
		}
	}
	return ""
}

// covers reports whether the rule applies to file, allowed or not.
func (g *guard) covers(file string) bool {
	return (g.in == nil || under(file, g.in) != "") && !(g.skipTests && strings.HasSuffix(file, "_test.go"))
}

// srcFile is one parsed Go file at its path in the repository.
type srcFile struct {
	path    string
	file    *ast.File
	imports map[string]string // qualifier -> import path
}

// hit is one match of a guard: where, and the allowlist entry covering
// it ("" for a violation).
type hit struct {
	pos     token.Position
	allowed string
}

// parseTree parses every .go file under root, tests and bench/ included,
// each at its path relative to root. testdata/, hidden directories
// (.git, .bench_build) and bench/out are skipped.
func parseTree(t *testing.T, fset *token.FileSet, root string) []srcFile {
	t.Helper()
	var files []srcFile
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || rel == "bench/out") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		imps := make(map[string]string, len(f.Imports))
		for _, spec := range f.Imports {
			ip, _ := strconv.Unquote(spec.Path.Value)
			name := path.Base(ip)
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imps[name] = ip
		}
		files = append(files, srcFile{path: rel, file: f, imports: imps})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// scan returns each guard's matches in the files it covers, in one walk
// of every file.
func scan(fset *token.FileSet, files []srcFile, gs []guard) [][]hit {
	hits := make([][]hit, len(gs))
	var active []int
	for _, f := range files {
		active = active[:0]
		for i := range gs {
			if gs[i].covers(f.path) {
				active = append(active, i)
			}
		}
		if len(active) == 0 {
			continue
		}
		ast.Inspect(f.file, func(n ast.Node) bool {
			for _, i := range active {
				if n != nil && gs[i].match(n, f.imports) {
					hits[i] = append(hits[i], hit{fset.Position(n.Pos()), under(f.path, gs[i].allow)})
				}
			}
			return true
		})
	}
	return hits
}

// TestArchitectureGuards checks the tree against every row of guards:
// nothing matches outside a row's allowlist, every allowlist entry covers
// a match, and every row fires on its fixture under testdata/guards,
// whose files stand at the repository path below the row's directory.
// Identifiers, imports and selectors are resolved syntactically, so a name
// in a comment or a string never matches.
func TestArchitectureGuards(t *testing.T) {
	fset := token.NewFileSet()
	tree := scan(fset, parseTree(t, fset, "."), guards)
	fixtures, err := os.ReadDir(filepath.Join("testdata", "guards"))
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[string]bool, len(guards))
	for i := range guards {
		g := &guards[i]
		rows[g.name] = true
		t.Run(g.name, func(t *testing.T) {
			used := make(map[string]bool, len(g.allow))
			for _, h := range tree[i] {
				if h.allowed != "" {
					used[h.allowed] = true
					continue
				}
				t.Errorf("%s: %s", h.pos, g.why)
			}
			for _, a := range g.allow {
				if !used[a] {
					t.Errorf("allowlist entry %s covers no match: delete it", a)
				}
			}
			fired := false
			for _, h := range scan(fset, parseTree(t, fset, filepath.Join("testdata", "guards", g.name)), guards[i:i+1])[0] {
				fired = fired || h.allowed == ""
			}
			if !fired {
				t.Errorf("the rule does not fire on testdata/guards/%s", g.name)
			}
		})
	}
	for _, d := range fixtures {
		if !rows[d.Name()] {
			t.Errorf("testdata/guards/%s is the fixture of no row", d.Name())
		}
	}
}

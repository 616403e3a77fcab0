package debugdet_test

import (
	"flag"
	"fmt"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"debugdet/internal/lint/load"
)

var update = flag.Bool("update", false, "rewrite testdata/api.golden, testdata/models and testdata/work.golden from the current code")

// apiPackages are the packages a user of the module may import: the
// public surface testdata/api.golden pins.
var apiPackages = []string{"debugdet", "debugdet/sim", "debugdet/scen", "debugdet/trace", "debugdet/figures"}

// TestPublicAPIGolden pins the public surface: every exported identifier
// of the five public packages with its signature, one per line. Most of
// the surface is aliases of internal types, so the exported fields and
// methods of an aliased type are listed under the alias — deleting an
// option field or a method of an internal type shows up here. A PR's
// public API diff is this file's diff; regenerate with
// `go test -run TestPublicAPIGolden -update .`.
func TestPublicAPIGolden(t *testing.T) {
	l, err := load.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	public := make(map[string]bool)
	for _, p := range apiPackages {
		public[p] = true
	}
	qual := func(p *types.Package) string {
		return strings.TrimPrefix(p.Path(), l.ModPath+"/")
	}
	var lines []string
	for _, path := range apiPackages {
		pkg, err := l.Load(filepath.Join(l.ModDir, strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")), path)
		if err != nil {
			t.Fatal(err)
		}
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s: %v", path, terr)
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			id := qual(pkg.Types) + "." + name
			tn, isType := obj.(*types.TypeName)
			if !isType {
				// "func debugdet.New(...) *debugdet.Engine", "const ...", "var ...".
				lines = append(lines, types.ObjectString(obj, qual))
				continue
			}
			typ := types.Unalias(tn.Type())
			if tn.IsAlias() {
				lines = append(lines, fmt.Sprintf("type %s = %s", id, types.TypeString(typ, qual)))
				// Members of a type another public package declares or
				// aliases are listed there.
				if rhs, ok := tn.Type().(*types.Alias).Rhs().(interface{ Obj() *types.TypeName }); !ok ||
					rhs.Obj().Pkg() == nil || public[rhs.Obj().Pkg().Path()] {
					continue
				}
			} else {
				// A struct's or interface's members follow one per line.
				under := types.TypeString(typ.Underlying(), qual)
				switch typ.Underlying().(type) {
				case *types.Struct:
					under = "struct"
				case *types.Interface:
					under = "interface"
				}
				lines = append(lines, fmt.Sprintf("type %s %s", id, under))
			}
			lines = append(lines, members(id, typ, qual)...)
		}
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"

	const golden = "testdata/api.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("public API differs from %s (rerun with -update if intended):\n%s", golden, lineDiff(string(want), got))
	}
}

// members lists the exported fields and methods of typ under id.
func members(id string, typ types.Type, qual types.Qualifier) []string {
	var out []string
	if st, ok := typ.Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				out = append(out, fmt.Sprintf("field %s.%s %s", id, f.Name(), types.TypeString(f.Type(), qual)))
			}
		}
	}
	// The pointer's method set holds value- and pointer-receiver methods
	// alike; an interface's own set is its methods.
	mset := types.NewMethodSet(typ)
	if _, isIface := typ.Underlying().(*types.Interface); !isIface {
		mset = types.NewMethodSet(types.NewPointer(typ))
	}
	for i := 0; i < mset.Len(); i++ {
		m := mset.At(i).Obj()
		if !m.Exported() {
			continue
		}
		sig := strings.TrimPrefix(types.TypeString(m.Type(), qual), "func")
		out = append(out, fmt.Sprintf("method %s.%s%s", id, m.Name(), sig))
	}
	return out
}

// lineDiff renders the lines only in want ("-") and only in got ("+").
func lineDiff(want, got string) string {
	in := func(s string) map[string]bool {
		m := make(map[string]bool)
		for _, l := range strings.Split(s, "\n") {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if !g[l] {
			fmt.Fprintf(&b, "-%s\n", l)
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if !w[l] {
			fmt.Fprintf(&b, "+%s\n", l)
		}
	}
	return b.String()
}

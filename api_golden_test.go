package stm_test

import (
	"flag"
	"go/types"
	"os"
	"sort"
	"strings"
	"testing"

	"privstm/internal/analysis"
)

var updateAPI = flag.Bool("update", false, "rewrite the API golden files from the packages' exported surfaces")

// apiGoldens names each package whose exported surface is pinned, with its
// golden file: the root package, and the two internal packages the
// repository benchmark drives, the KV server and the semantic containers.
var apiGoldens = []struct{ pkg, golden string }{
	{".", "api.golden"},
	{"./internal/server", "internal/server/api.golden"},
	{"./internal/tds", "internal/tds/api.golden"},
}

// TestAPIGolden pins each package's exported surface to its golden file,
// one line per exported constant, variable, function, type, struct field
// and method, with its signature. Like stmlint.baseline it is a ratchet
// that moves only by a reviewed edit: an identifier exported without a
// golden line fails (growth is deliberate), and so does a golden line that
// no longer matches anything (a removal or a changed signature must leave
// the file too). Regenerate with `go test -run TestAPIGolden -update .`.
func TestAPIGolden(t *testing.T) {
	for _, g := range apiGoldens {
		t.Run(g.golden, func(t *testing.T) {
			prog, err := analysis.Load(".", g.pkg)
			if err != nil {
				t.Fatal(err)
			}
			if len(prog.Pkgs) != 1 {
				t.Fatalf("loaded %d packages for %s, want one", len(prog.Pkgs), g.pkg)
			}
			got := exportedAPI(prog.Pkgs[0].Types)
			if *updateAPI {
				if err := os.WriteFile(g.golden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			raw, err := os.ReadFile(g.golden)
			if err != nil {
				t.Fatal(err)
			}
			want := make(map[string]bool)
			for _, l := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
				want[l] = true
			}
			for _, l := range got {
				if !want[l] {
					t.Errorf("exported but not in %s: %s", g.golden, l)
				}
				delete(want, l)
			}
			for l := range want {
				t.Errorf("in %s but no longer exported: %s", g.golden, l)
			}
		})
	}
}

// exportedAPI renders pkg's exported surface as sorted lines. Types print
// their kind, not their layout (unexported fields stay private); exported
// struct fields and the exported methods of both method sets get a line
// each.
func exportedAPI(pkg *types.Package) []string {
	qual := func(p *types.Package) string {
		if p == pkg {
			return ""
		}
		return p.Name()
	}
	var out []string
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		tn, ok := obj.(*types.TypeName)
		if !ok {
			out = append(out, types.ObjectString(obj, qual))
			continue
		}
		kind := types.TypeString(tn.Type().Underlying(), qual)
		st, isStruct := tn.Type().Underlying().(*types.Struct)
		if isStruct {
			kind = "struct"
		}
		if tn.IsAlias() {
			kind = "= " + types.TypeString(tn.Type(), qual)
		}
		out = append(out, "type "+name+" "+kind)
		if isStruct && !tn.IsAlias() {
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					out = append(out, "field "+name+"."+f.Name()+" "+types.TypeString(f.Type(), qual))
				}
			}
		}
		if tn.IsAlias() {
			continue
		}
		ms := types.NewMethodSet(types.NewPointer(tn.Type()))
		for i := 0; i < ms.Len(); i++ {
			if m := ms.At(i).Obj(); m.Exported() && m.Pkg() == pkg {
				out = append(out, types.ObjectString(m, qual))
			}
		}
	}
	sort.Strings(out)
	return out
}

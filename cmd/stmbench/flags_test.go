package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"
)

// set builds the explicitly-passed-flags map the way main does via
// flag.Visit.
func set(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

func TestCrossValidateAccepts(t *testing.T) {
	cases := []struct {
		name string
		set  map[string]bool
		v    flagValues
	}{
		{"no flags", set(), flagValues{}},
		{"plain figure", set("fig"), flagValues{fig: "3a"}},
		{"figure with mix and algos", set("fig", "mix", "algos"), flagValues{fig: "3a"}},
		{"remote with its modifiers", set("remote", "conns", "keys", "batch", "remotemix", "tenants", "zipf", "json", "dur", "seed"),
			flagValues{remote: ":7077"}},
		{"reclaimsweep with pairs and basejson", set("reclaimsweep", "pairs", "basejson"),
			flagValues{reclaim: true}},
		{"tdssweep with zipf", set("tdssweep", "zipf", "pairs"), flagValues{tdssweep: true}},
		{"compare with tolerance", set("compare", "tolerance"), flagValues{compare: true}},
		{"tdscheck with knobs", set("tdscheck", "tdsthreads", "tdsgain"), flagValues{tdscheck: true}},
		{"micro alone", set("micro"), flagValues{micro: true}},
		{"zipf on a figure", set("fig", "zipf"), flagValues{fig: "3e"}},
	}
	for _, tc := range cases {
		if err := crossValidate(tc.set, tc.v); err != nil {
			t.Errorf("%s: unexpected error: %v", tc.name, err)
		}
	}
}

func TestCrossValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		set  map[string]bool
		v    flagValues
		want string // substring of the error
	}{
		{"remote and tdssweep", set("remote", "tdssweep"),
			flagValues{remote: ":7077", tdssweep: true}, "conflicting modes"},
		{"remote and fig", set("remote", "fig"),
			flagValues{remote: ":7077", fig: "3a"}, "conflicting modes"},
		{"compare and tdscheck", set("compare", "tdscheck"),
			flagValues{compare: true, tdscheck: true}, "conflicting modes"},
		{"list and reclaimsweep", set("list", "reclaimsweep"),
			flagValues{list: true, reclaim: true}, "conflicting modes"},
		{"remote with tracker", set("remote", "tracker"),
			flagValues{remote: ":7077"}, "-tracker"},
		{"remote with threads", set("remote", "threads"),
			flagValues{remote: ":7077"}, "-threads"},
		{"remote with maxattempts", set("remote", "maxattempts"),
			flagValues{remote: ":7077"}, "-maxattempts"},
		{"remote with csv", set("remote", "csv"),
			flagValues{remote: ":7077"}, "-csv"},
		{"conns without remote", set("fig", "conns"),
			flagValues{fig: "3a"}, "-conns"},
		{"tenants without remote", set("tenants"),
			flagValues{list: true}, "-tenants"},
		{"batch without remote", set("micro", "batch"),
			flagValues{micro: true}, "-batch"},
		{"pairs without a sweep", set("fig", "pairs"),
			flagValues{fig: "3a"}, "-pairs"},
		{"basejson without a sweep", set("fig", "basejson"),
			flagValues{fig: "3a"}, "-basejson"},
		{"mix with a sweep", set("tdssweep", "mix"),
			flagValues{tdssweep: true}, "-mix"},
		{"tdsthreads without tdscheck", set("fig", "tdsthreads"),
			flagValues{fig: "3a"}, "-tdsthreads"},
		{"tolerance without compare", set("fig", "tolerance"),
			flagValues{fig: "3a"}, "-tolerance"},
	}
	for _, tc := range cases {
		err := crossValidate(tc.set, tc.v)
		if err == nil {
			t.Errorf("%s: expected an error, got nil", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestPolicedFlagsAreDefined keeps the cross-validation lists honest: every
// flag name they police must still be defined in main.go, so deleting a flag
// without deleting its entry fails here instead of leaving a dead check.
func TestPolicedFlagsAreDefined(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defined := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if name, err := strconv.Unquote(lit.Value); err == nil {
				defined[name] = true
			}
		}
		return true
	})
	if !defined["remote"] {
		t.Fatal("found no flag definitions in main.go")
	}
	for _, name := range append(append([]string{}, localOnlyWithRemote...), remoteOnly...) {
		if !defined[name] {
			t.Errorf("-%s is policed by crossValidate but not defined in main.go", name)
		}
	}
}

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
		{"figure with its harness knobs", set("fig", "threads", "txns", "scale", "reps", "maxattempts", "csv", "json", "seed"),
			flagValues{fig: "3e"}},
		{"list alone", set("list"), flagValues{list: true}},
		{"empty fig with list", set("fig", "list"), flagValues{list: true}},
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
		{"remote and fig", set("remote", "fig"),
			flagValues{remote: ":7077", fig: "3a"}, "conflicting modes"},
		{"remote and list", set("remote", "list"),
			flagValues{remote: ":7077", list: true}, "conflicting modes"},
		{"list and fig", set("list", "fig"),
			flagValues{list: true, fig: "3a"}, "conflicting modes"},
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
		{"batch without remote", set("fig", "batch"),
			flagValues{fig: "3a"}, "-batch"},
		{"remote with mix", set("remote", "mix"),
			flagValues{remote: ":7077"}, "-mix"},
		{"remote with cpuprofile", set("remote", "cpuprofile"),
			flagValues{remote: ":7077"}, "-cpuprofile"},
		{"remote with memprofile", set("remote", "memprofile"),
			flagValues{remote: ":7077"}, "-memprofile"},
		{"remote with mutexprofile", set("remote", "mutexprofile"),
			flagValues{remote: ":7077"}, "-mutexprofile"},
		{"stray positional argument", set("fig"),
			flagValues{fig: "3a", args: []string{"old.json"}}, "old.json"},
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

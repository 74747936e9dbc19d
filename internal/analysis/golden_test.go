package analysis

import (
	"flag"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// runFixture loads fixture packages from testdata/src, runs one analyzer,
// and returns the formatted diagnostics with paths relative to
// testdata/src.
func runFixture(t *testing.T, a *Analyzer, patterns ...string) []string {
	t.Helper()
	src, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Load(src, patterns...)
	if err != nil {
		t.Fatalf("loading %v: %v", patterns, err)
	}
	var out []string
	for _, d := range prog.Run([]*Analyzer{a}) {
		out = append(out, d.Format(src))
	}
	return out
}

// checkGolden compares got against testdata/<name>.golden, rewriting it
// under -update.
func checkGolden(t *testing.T, name string, got []string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	text := strings.Join(got, "\n")
	if len(got) > 0 {
		text += "\n"
	}
	if *update {
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/analysis -run %s -update`): %v", t.Name(), err)
	}
	if string(want) != text {
		t.Errorf("diagnostics differ from %s\n--- got ---\n%s--- want ---\n%s", path, text, want)
	}
}

func TestMixedAtomicGolden(t *testing.T) {
	checkGolden(t, "mixedatomic", runFixture(t, MixedAtomic(), "mixedatomic"))
}

func TestTxnPurityGolden(t *testing.T) {
	// The /... pattern matters: the cross-package fixture's helper package
	// must be loaded for the call graph to descend into it.
	checkGolden(t, "txnpurity", runFixture(t, TxnPurity(), "txnpurity/..."))
}

func TestPrivAccessGolden(t *testing.T) {
	checkGolden(t, "privaccess", runFixture(t, PrivAccess(), "privaccess/..."))
}

func TestYieldSiteGolden(t *testing.T) {
	checkGolden(t, "yieldsite", runFixture(t, YieldSite(), "yieldsite/..."))
}

// TestYieldScopeNamesModulePackages keeps the yieldsite scope from going
// stale: every package name in it must name a package of the module, so a
// deleted or renamed runtime package cannot linger there unnoticed.
func TestYieldScopeNamesModulePackages(t *testing.T) {
	prog, err := Load(filepath.Join("..", ".."), "./...")
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, pkg := range prog.Pkgs {
		names[pkg.Name] = true
	}
	for name := range defaultYieldScope {
		if !names[name] {
			t.Errorf("yieldsite scope names %q, which is no package of the module", name)
		}
	}
}

// TestYieldSiteRediscoversCMWait is the rediscovery control: the retryloop
// fixture copies core.Run's retry loop as it stood before PR 5 added the
// core/retry/cm-wait yield, and the analyzer must flag exactly that loop
// (RunBad) while leaving the fixed shape (RunGood) clean. The position is
// pinned so the test fails loudly if the analyzer drifts.
func TestYieldSiteRediscoversCMWait(t *testing.T) {
	got := runFixture(t, YieldSite(), "yieldsite/retryloop")
	const want = "yieldsite/retryloop/retry.go:35"
	found := false
	for _, line := range got {
		if strings.HasPrefix(line, want) {
			found = true
		} else {
			t.Errorf("unexpected finding (RunGood must stay clean): %s", line)
		}
	}
	if !found {
		t.Errorf("analyzer no longer catches the historical cm-wait omission at %s; findings: %v", want, got)
	}
}

// TestFixturesTripTheLinter is the acceptance check that the violation
// fixtures make the default suite exit nonzero territory: every rule must
// produce at least one finding on its own fixture.
func TestFixturesTripTheLinter(t *testing.T) {
	for _, tc := range []struct {
		analyzer *Analyzer
		patterns []string
	}{
		{MixedAtomic(), []string{"mixedatomic"}},
		{TxnPurity(), []string{"txnpurity/..."}},
		{PrivAccess(), []string{"privaccess/..."}},
		{YieldSite(), []string{"yieldsite/..."}},
	} {
		if got := runFixture(t, tc.analyzer, tc.patterns...); len(got) == 0 {
			t.Errorf("%s: no findings on its violation fixture", tc.analyzer.Name)
		}
	}
}

// TestRepoIsClean runs the full four-analyzer suite over the real module —
// the same invocations `make lint` uses — and requires zero findings on
// every cell of the build-tag matrix (default, the watermark-race revert,
// and the reclaim-race epoch bypass), so a regression in the runtime's
// access, wait, or reclamation discipline fails `go test ./...` too.
func TestRepoIsClean(t *testing.T) {
	for _, tags := range [][]string{nil, {"privstm_watermark_race"}, {"privstm_reclaim_race"}} {
		prog, err := LoadTags(filepath.Join("..", ".."), tags, "./...")
		if err != nil {
			t.Fatal(err)
		}
		if diags := prog.Run(Analyzers()); len(diags) != 0 {
			for _, d := range diags {
				t.Errorf("tags=%v: %s", tags, d.Format(prog.ModRoot))
			}
		}
	}
}

// TestMetadataTypesExportNoFields keeps the orec, clock, txnlist and spin
// metadata behind their packages' accessors (PackOwned/CAS acquire,
// Clock.Tick, Slots.Enter/Leave, ...), so every mutation follows the
// protocol: no struct type in those packages may export a field, and the
// compiler then rejects any access from outside. Both build-tag cells of
// txnlist's slot array are checked.
func TestMetadataTypesExportNoFields(t *testing.T) {
	for _, tags := range [][]string{nil, {"privstm_watermark_race"}} {
		prog, err := LoadTags(filepath.Join("..", ".."), tags,
			"./internal/orec", "./internal/clock", "./internal/txnlist", "./internal/spin")
		if err != nil {
			t.Fatal(err)
		}
		if len(prog.Pkgs) != 4 {
			t.Fatalf("tags=%v: loaded %d packages, want 4", tags, len(prog.Pkgs))
		}
		for _, pkg := range prog.Pkgs {
			scope := pkg.Types.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok {
					continue
				}
				st, ok := tn.Type().Underlying().(*types.Struct)
				if !ok {
					continue
				}
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() {
						t.Errorf("tags=%v: %s.%s exports field %s; keep metadata behind accessor methods",
							tags, pkg.Name, name, f.Name())
					}
				}
			}
		}
	}
}

// TestRuleNamesAreStable pins the rule identifiers that ignore comments
// and CI reference.
func TestRuleNamesAreStable(t *testing.T) {
	want := []string{"mixedatomic", "txnpurity", "privaccess", "yieldsite"}
	got := Analyzers()
	if len(got) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer %d = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no doc", a.Name)
		}
	}
}

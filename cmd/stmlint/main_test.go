package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func devNull(t *testing.T) *os.File {
	t.Helper()
	f, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestExitCodes pins the process contract: 0 on a clean tree, 1 on
// findings, 2 on usage/load errors.
func TestExitCodes(t *testing.T) {
	null := devNull(t)
	fixtures := filepath.Join("..", "..", "internal", "analysis", "testdata", "src")

	if got := run([]string{"../.."}, null, null); got != 0 {
		t.Errorf("clean repo: exit %d, want 0", got)
	}
	if got := run([]string{filepath.Join(fixtures, "mixedatomic")}, null, null); got != 1 {
		t.Errorf("violation fixture: exit %d, want 1", got)
	}
	if got := run([]string{fixtures + "/..."}, null, null); got != 1 {
		t.Errorf("all fixtures: exit %d, want 1", got)
	}
	if got := run([]string{"-rules", "nosuchrule", "../.."}, null, null); got != 2 {
		t.Errorf("unknown rule: exit %d, want 2", got)
	}
	if got := run([]string{"./does-not-exist"}, null, null); got != 2 {
		t.Errorf("bad pattern: exit %d, want 2", got)
	}
	if got := run([]string{"-list"}, null, null); got != 0 {
		t.Errorf("-list: exit %d, want 0", got)
	}
	if got := run([]string{"-rules", "txnpurity", fixtures + "/..."}, null, null); got != 1 {
		t.Errorf("rule subset on fixtures: exit %d, want 1", got)
	}
}

// outFile returns a temp file to capture stdout plus a reader for it.
func outFile(t *testing.T) (*os.File, func() string) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stmlint-out-*")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f, func() string {
		data, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
}

// TestTagMatrix pins the acceptance criterion that the repo is clean under
// the privstm_watermark_race tag set too — the historical race variant is
// analyzed, not skipped, and carries no findings.
func TestTagMatrix(t *testing.T) {
	null := devNull(t)
	if got := run([]string{"-tags", "privstm_watermark_race", "../.."}, null, null); got != 0 {
		t.Errorf("race tag set: exit %d, want 0", got)
	}
}

// TestJSONOutput checks the machine-readable report: valid JSON, all four
// rules recorded, findings present for a violation fixture.
func TestJSONOutput(t *testing.T) {
	null := devNull(t)
	fixtures := filepath.Join("..", "..", "internal", "analysis", "testdata", "src")
	out, read := outFile(t)

	if got := run([]string{"-json", filepath.Join(fixtures, "mixedatomic")}, out, null); got != 1 {
		t.Fatalf("json on violation fixture: exit %d, want 1", got)
	}
	var report struct {
		Rules    []string `json:"rules"`
		Findings []struct {
			File string `json:"file"`
			Line int    `json:"line"`
			Rule string `json:"rule"`
		} `json:"findings"`
	}
	if err := json.Unmarshal([]byte(read()), &report); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(report.Rules) != 4 {
		t.Errorf("report lists %d rules, want 4", len(report.Rules))
	}
	if len(report.Findings) == 0 {
		t.Error("no findings in JSON report for a violation fixture")
	}
	for _, f := range report.Findings {
		if f.File == "" || f.Line == 0 || f.Rule == "" {
			t.Errorf("incomplete finding: %+v", f)
		}
	}
}

// TestBaselineRatchet pins the baseline semantics: listed findings are
// tolerated, unlisted ones still fail, and entries that stop matching
// fail the run unless -ratchet=false — the file can only shrink.
func TestBaselineRatchet(t *testing.T) {
	null := devNull(t)
	fixture := filepath.Join("..", "..", "internal", "analysis", "testdata", "src", "mixedatomic")

	// Capture the fixture's findings as a baseline.
	out, read := outFile(t)
	if got := run([]string{fixture}, out, null); got != 1 {
		t.Fatalf("fixture run: exit %d, want 1", got)
	}
	base := filepath.Join(t.TempDir(), "baseline")
	if err := os.WriteFile(base, []byte("# tolerated findings\n"+read()), 0o644); err != nil {
		t.Fatal(err)
	}

	// Fully baselined: clean.
	if got := run([]string{"-baseline", base, fixture}, null, null); got != 0 {
		t.Errorf("baselined fixture: exit %d, want 0", got)
	}

	// A stale entry fails under the ratchet, passes without it.
	if err := os.WriteFile(base, []byte("gone.go:1: [mixedatomic] fixed finding\n"+read()), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := run([]string{"-baseline", base, fixture}, null, null); got != 1 {
		t.Errorf("stale baseline entry under ratchet: exit %d, want 1", got)
	}
	if got := run([]string{"-baseline", base, "-ratchet=false", fixture}, null, null); got != 0 {
		t.Errorf("stale baseline entry with -ratchet=false: exit %d, want 0", got)
	}

	// A missing baseline file is a usage error.
	if got := run([]string{"-baseline", filepath.Join(t.TempDir(), "nope"), fixture}, null, null); got != 2 {
		t.Errorf("missing baseline file: exit %d, want 2", got)
	}
}

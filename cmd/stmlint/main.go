// Command stmlint statically enforces the STM runtime's concurrency
// invariants: atomic access discipline, transaction-body purity,
// privatization safety (uninstrumented access reachable from
// transactions), and wait-loop yield discipline. Copying lock- or
// atomic-bearing metadata is go vet's copylocks check. See
// internal/analysis and the "Static checks" sections of CORRECTNESS.md.
//
// Usage:
//
//	stmlint [-rules list] [-tags list] [-json] [-baseline file] [-ratchet=bool] [packages]
//
// Packages follow the go tool's pattern shape (default "./..."). -tags
// selects a custom build-tag set so tagged variants (slots_race.go under
// privstm_watermark_race) are analyzed instead of silently skipped; run
// the tool once per tag set to cover the matrix. -json emits the findings
// as a machine-readable report on stdout. -baseline names a file of
// Format-style finding lines to tolerate: matching findings are
// suppressed, and — unless -ratchet=false — entries that no longer match
// anything fail the run, so the baseline can only ever shrink. (Run the
// ratchet on the default tag set only: a tagged finding looks stale to
// the other matrix runs.)
//
// The process exits 0 when no findings remain, 1 when findings are
// reported or the baseline is stale, and 2 on load/usage errors. Suppress
// an individual finding with a trailing or preceding
// "//stmlint:ignore <rule> <reason>" comment.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"privstm/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonFinding is one diagnostic in the -json report.
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

// jsonReport is the -json document: enough context (tags, rules) that a
// CI artifact is interpretable on its own.
type jsonReport struct {
	Tags      []string      `json:"tags,omitempty"`
	Rules     []string      `json:"rules"`
	Findings  []jsonFinding `json:"findings"`
	Baselined int           `json:"baselined,omitempty"`
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("stmlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rules := fs.String("rules", "", "comma-separated subset of rules to run (default: all)")
	list := fs.Bool("list", false, "list available rules and exit")
	tags := fs.String("tags", "", "comma-separated custom build tags to analyze under")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON report on stdout")
	baseline := fs.String("baseline", "", "file of tolerated finding lines (see -ratchet)")
	ratchet := fs.Bool("ratchet", true, "fail when baseline entries no longer match (baseline may only shrink)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: stmlint [-rules list] [-tags list] [-json] [-baseline file] [packages]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	suite := analysis.Analyzers()
	if *list {
		for _, a := range suite {
			fmt.Fprintf(stdout, "%-20s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *rules != "" {
		want := make(map[string]bool)
		for _, r := range strings.Split(*rules, ",") {
			want[strings.TrimSpace(r)] = true
		}
		var filtered []*analysis.Analyzer
		for _, a := range suite {
			if want[a.Name] {
				filtered = append(filtered, a)
				delete(want, a.Name)
			}
		}
		for r := range want {
			fmt.Fprintf(stderr, "stmlint: unknown rule %q\n", r)
			return 2
		}
		suite = filtered
	}

	var tagList []string
	if *tags != "" {
		for _, t := range strings.Split(*tags, ",") {
			if t = strings.TrimSpace(t); t != "" {
				tagList = append(tagList, t)
			}
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "stmlint:", err)
		return 2
	}
	prog, err := analysis.LoadTags(cwd, tagList, fs.Args()...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	diags := prog.Run(suite)

	// Baseline: tolerate exactly the listed finding lines; under the
	// ratchet, entries that match nothing are themselves failures, so the
	// file can only ever shrink toward empty.
	baselined := 0
	var stale []string
	if *baseline != "" {
		tolerated, err := readBaseline(*baseline)
		if err != nil {
			fmt.Fprintln(stderr, "stmlint:", err)
			return 2
		}
		kept := diags[:0]
		for _, d := range diags {
			if _, ok := tolerated[d.Format(cwd)]; ok {
				tolerated[d.Format(cwd)] = true
				baselined++
				continue
			}
			kept = append(kept, d)
		}
		diags = kept
		for line, used := range tolerated {
			if !used {
				stale = append(stale, line)
			}
		}
	}

	if *jsonOut {
		report := jsonReport{Tags: prog.Tags, Findings: []jsonFinding{}, Baselined: baselined}
		for _, a := range suite {
			report.Rules = append(report.Rules, a.Name)
		}
		for _, d := range diags {
			file := d.Pos.Filename
			if rel, err := filepath.Rel(cwd, file); err == nil {
				file = rel
			}
			report.Findings = append(report.Findings, jsonFinding{
				File:    filepath.ToSlash(file),
				Line:    d.Pos.Line,
				Column:  d.Pos.Column,
				Rule:    d.Rule,
				Message: d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(stderr, "stmlint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d.Format(cwd))
		}
	}

	fail := false
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "stmlint: %d finding(s) in %d package(s)\n", len(diags), len(prog.Pkgs))
		fail = true
	}
	if len(stale) > 0 && *ratchet {
		fmt.Fprintf(stderr, "stmlint: %d stale baseline entr%s (fixed findings must leave the baseline — it only shrinks):\n",
			len(stale), map[bool]string{true: "y", false: "ies"}[len(stale) == 1])
		for _, line := range stale {
			fmt.Fprintf(stderr, "  %s\n", line)
		}
		fail = true
	}
	if fail {
		return 1
	}
	return 0
}

// readBaseline parses a baseline file: one Format-style finding line per
// line, blank lines and #-comments skipped. The boolean tracks whether the
// entry matched a finding this run.
func readBaseline(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]bool)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out[line] = false
	}
	return out, sc.Err()
}

// Package analysis is a from-scratch static-analysis framework for the STM
// runtime, built only on the standard library's go/ast, go/parser, go/types
// and go/token (no golang.org/x/tools dependency).
//
// The concurrency-correctness argument of the paper's privatization design
// rests on a handful of access-discipline invariants: orec words and
// read-visibility hints are only touched through atomic operations, the
// global clock only advances through its accessors, and transaction bodies
// never perform irrevocable side effects. Khyzha et al. ("Safe
// Privatization in Transactional Memory") show that privatization bugs are
// precisely uninstrumented accesses slipping past the protocol — so this
// package machine-checks the discipline instead of trusting comments.
//
// Four analyzers are provided (see Analyzers). Two are intra-package AST
// checks:
//
//	mixedatomic        — a struct field accessed via sync/atomic anywhere
//	                     must be accessed atomically everywhere
//	txnpurity          — function literals passed to stm.Atomic/core.Run
//	                     must not sleep, block on channels, lock mutexes,
//	                     or perform os/net I/O (irrevocability hazards)
//
// Two are interprocedural, built on the module-wide call graph
// (callgraph.go):
//
//	privaccess         — uninstrumented stm.Private access must never be
//	                     reachable from a transaction body, nor follow the
//	                     Retire of its extent
//	yieldsite          — poll loops in runtime packages must contain a
//	                     sched-visible yield point, so the schedule
//	                     explorer keeps full wait-site coverage
//
// Copying metadata by value (orecs, spin mutexes, anything holding a typed
// atomic) is go vet's copylocks check: it sees the atomics through their
// noCopy marker and spin.Mutex through its Lock/Unlock methods, and make
// lint runs it on every build-tag cell.
//
// A finding can be suppressed with a comment on the same line or the line
// immediately above:
//
//	//stmlint:ignore mixedatomic reason for the exception
//	//stmlint:ignore mixedatomic,privaccess two rules at once
package analysis

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, the rule that fired, and a
// human-readable message.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String formats the diagnostic as "file:line: [rule] message" with the
// file path as recorded (usually absolute). Use Format for paths relative
// to a base directory.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Rule, d.Message)
}

// Format renders the diagnostic with its file path relative to base (when
// possible), the form the command line and the golden tests use.
func (d Diagnostic) Format(base string) string {
	name := d.Pos.Filename
	if base != "" {
		if rel, err := filepath.Rel(base, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = filepath.ToSlash(rel)
		}
	}
	return fmt.Sprintf("%s:%d: [%s] %s", name, d.Pos.Line, d.Rule, d.Message)
}

// Analyzer is one named check over a loaded Program.
type Analyzer struct {
	// Name is the rule identifier used in diagnostics and ignore comments.
	Name string
	// Doc is a one-line description of the invariant the rule guards.
	Doc string
	// Run inspects the whole program and returns raw findings; ignore
	// filtering and sorting happen in Program.Run.
	Run func(*Program) []Diagnostic
}

// Analyzers returns the default suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		MixedAtomic(),
		TxnPurity(),
		PrivAccess(),
		YieldSite(),
	}
}

// Run executes the given analyzers over the program, drops findings
// suppressed by //stmlint:ignore comments, and returns the remainder
// sorted by position then rule.
func (p *Program) Run(analyzers []*Analyzer) []Diagnostic {
	ignores := p.ignoreIndex()
	var out []Diagnostic
	for _, a := range analyzers {
		for _, d := range a.Run(p) {
			if ignores.suppresses(d) {
				continue
			}
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return out
}

// ignoreMarker is the comment prefix that suppresses findings.
const ignoreMarker = "stmlint:ignore"

// ignoreIndex maps (file, line) to the set of rule names suppressed there.
// An ignore comment suppresses its own line and the line that follows, so
// it works both as a trailing comment and on a line of its own above the
// flagged statement.
type ignoreIndex map[string]map[int]map[string]bool

func (ix ignoreIndex) add(file string, line int, rule string) {
	m, ok := ix[file]
	if !ok {
		m = make(map[int]map[string]bool)
		ix[file] = m
	}
	for _, l := range [2]int{line, line + 1} {
		if m[l] == nil {
			m[l] = make(map[string]bool)
		}
		m[l][rule] = true
	}
}

func (ix ignoreIndex) suppresses(d Diagnostic) bool {
	m := ix[d.Pos.Filename]
	if m == nil {
		return false
	}
	rules := m[d.Pos.Line]
	return rules != nil && (rules[d.Rule] || rules["all"])
}

// ignoreIndex scans every comment in the program for //stmlint:ignore
// markers. The first whitespace-delimited field after the marker is a
// comma-separated rule list ("all" matches every rule); anything after it
// is free-text justification.
func (p *Program) ignoreIndex() ignoreIndex {
	ix := make(ignoreIndex)
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					text = strings.TrimSpace(strings.TrimPrefix(text, "/*"))
					if !strings.HasPrefix(text, ignoreMarker) {
						continue
					}
					rest := strings.TrimSpace(strings.TrimPrefix(text, ignoreMarker))
					fields := strings.Fields(rest)
					pos := p.Fset.Position(c.Pos())
					if len(fields) == 0 {
						ix.add(pos.Filename, pos.Line, "all")
						continue
					}
					for _, rule := range strings.Split(fields[0], ",") {
						if rule = strings.TrimSpace(rule); rule != "" {
							ix.add(pos.Filename, pos.Line, rule)
						}
					}
				}
			}
		}
	}
	return ix
}

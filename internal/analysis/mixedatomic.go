package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// MixedAtomic returns the mixedatomic analyzer.
//
// Invariant (paper §II-E, CORRECTNESS.md §1): every word of STM metadata
// that participates in the privatization protocol — orec words, clock
// values, visibility hints, tracker slots, shared counters — is accessed
// through Go's sequentially consistent atomics, so that all conflicting
// accesses are ordered by a single total order. A struct field that is
// passed to sync/atomic anywhere must therefore be accessed atomically
// *everywhere*: one plain load or store reintroduces exactly the
// uninstrumented-access races privatization safety is supposed to rule
// out (Khyzha et al.). Typed atomics (atomic.Uint64 & friends) make the
// mistake impossible and are invisible to this rule; it exists for the
// function-style atomics operating on plain fields.
//
// For slice/array fields the atomic target is an element, so only element
// accesses (indexing, ranging) of the same field are flagged; len/cap and
// whole-slice reads do not race with element atomics.
func MixedAtomic() *Analyzer {
	return &Analyzer{
		Name: "mixedatomic",
		Doc:  "a struct field accessed via sync/atomic anywhere must be accessed atomically everywhere",
		Run:  runMixedAtomic,
	}
}

// atomicFieldFact records how a field is used atomically across the
// program.
type atomicFieldFact struct {
	sites []token.Pos // atomic call sites, sorted
	whole bool        // &s.f (the field word itself); false: only &s.f[i]
}

func runMixedAtomic(p *Program) []Diagnostic {
	// Pass 1: find every field that is the target of a sync/atomic call,
	// anywhere in the program, and remember the selector nodes those calls
	// go through so pass 2 does not count them as plain accesses.
	facts := make(map[*types.Var]*atomicFieldFact)
	sanctioned := make(map[*ast.SelectorExpr]bool)
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				addr := syncAtomicCall(pkg.Info, call)
				if addr == nil {
					return true
				}
				sel, field, indexed := addressedField(pkg.Info, addr)
				if field == nil {
					return true
				}
				fact := facts[field]
				if fact == nil {
					fact = &atomicFieldFact{}
					facts[field] = fact
				}
				fact.sites = append(fact.sites, call.Pos())
				fact.whole = fact.whole || !indexed
				sanctioned[sel] = true
				return true
			})
		}
	}
	if len(facts) == 0 {
		return nil
	}
	for _, fact := range facts {
		sort.Slice(fact.sites, func(i, j int) bool { return fact.sites[i] < fact.sites[j] })
	}

	// Pass 2: flag every conflicting plain access to those fields.
	var diags []Diagnostic
	for _, pkg := range p.Pkgs {
		info := pkg.Info
		for _, f := range pkg.Files {
			walkStack(f, func(n ast.Node, stack []ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || sanctioned[sel] {
					return true
				}
				field := fieldOf(info, sel)
				if field == nil {
					return true
				}
				fact, hot := facts[field]
				if !hot {
					return true
				}
				if !fact.whole && !isElementAccess(sel, stack) {
					return true
				}
				name := qualifiedFieldName(info.Selections[sel].Recv(), field)
				diags = append(diags, Diagnostic{
					Pos:  p.Fset.Position(sel.Pos()),
					Rule: "mixedatomic",
					Message: fmt.Sprintf(
						"plain access of %s, which is accessed with sync/atomic at %s; mixing atomic and plain accesses is a data race",
						name, p.relTo(fact.sites[0])),
				})
				return true
			})
		}
	}
	return diags
}

// isElementAccess reports whether selector sel (a slice/array field whose
// elements are accessed atomically elsewhere) is itself used to reach an
// element: indexed, or ranged over. len/cap and whole-value uses are fine.
func isElementAccess(sel *ast.SelectorExpr, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	switch parent := stack[len(stack)-1].(type) {
	case *ast.IndexExpr:
		return unparen(parent.X) == sel
	case *ast.RangeStmt:
		// `for i, v := range s.f` copies elements when v is present; even
		// index-only ranging is conservatively treated as element access.
		return unparen(parent.X) == sel
	}
	return false
}

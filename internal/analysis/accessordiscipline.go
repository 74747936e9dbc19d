package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// defaultProtectedPkgs names the metadata packages whose struct fields
// carry the privatization protocol's access discipline. The key is the
// package *name* (not path) so the rule also applies to the test fixtures
// and to any future relocation of the packages.
var defaultProtectedPkgs = map[string]bool{
	"orec":    true, // ownership records: owner word, vis word, grace
	"clock":   true, // the global version clock
	"txnlist": true, // the central list of incomplete transactions
	"spin":    true, // spin locks guarding the above
}

// AccessorDiscipline returns the accessordiscipline analyzer with the
// default protected-package set and an empty allowlist.
//
// Invariant (paper §II-C/§II-E): orec words, the clock, and the central
// transaction list are only manipulated through their own package's
// accessors — PackOwned/CAS acquire, Clock.Tick, List.Enter/Remove — so
// that every mutation follows the protocol (e.g. the clock never moves
// backwards, rts|tid are stored as one word, list order matches timestamp
// order). Outside the declaring package, the only permitted direct field
// use is calling a method on a sync/atomic-typed field (o.Owner.Load()),
// which *is* the accessor for exported atomic words.
func AccessorDiscipline() *Analyzer {
	return NewAccessorDiscipline(defaultProtectedPkgs, nil)
}

// NewAccessorDiscipline builds the analyzer with an explicit protected set
// and an allowlist of accessor package names that may touch protected
// fields directly (the escape hatch for tightly coupled helper packages).
func NewAccessorDiscipline(protected, allow map[string]bool) *Analyzer {
	return &Analyzer{
		Name: "accessordiscipline",
		Doc:  "fields of orec/clock/txnlist/spin types may only be touched via their package's accessors",
		Run: func(p *Program) []Diagnostic {
			return runAccessorDiscipline(p, protected, allow)
		},
	}
}

func runAccessorDiscipline(p *Program, protected, allow map[string]bool) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range p.Pkgs {
		if allow[pkg.Name] {
			continue
		}
		info := pkg.Info
		for _, f := range pkg.Files {
			walkStack(f, func(n ast.Node, stack []ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				field := fieldOf(info, sel)
				if field == nil || field.Pkg() == nil {
					return true
				}
				declPkg := field.Pkg()
				if declPkg == pkg.Types || !protected[declPkg.Name()] {
					return true
				}
				if isAtomicMethodCall(sel, field, stack) {
					return true
				}
				name := qualifiedFieldName(info.Selections[sel].Recv(), field)
				diags = append(diags, Diagnostic{
					Pos:  p.Fset.Position(sel.Pos()),
					Rule: "accessordiscipline",
					Message: fmt.Sprintf(
						"direct access to %s outside package %s; use the package's accessor methods (calling sync/atomic methods on the field is allowed)",
						name, declPkg.Name()),
				})
				return true
			})
		}
	}
	return diags
}

// isAtomicMethodCall reports whether selector sel (a protected field) is
// used only as the receiver of a method call on a sync/atomic typed field:
// the expression shape x.Field.Load(...) with Field of type atomic.T.
func isAtomicMethodCall(sel *ast.SelectorExpr, field *types.Var, stack []ast.Node) bool {
	if !isSyncAtomicType(field.Type()) || len(stack) < 2 {
		return false
	}
	parent, ok := stack[len(stack)-1].(*ast.SelectorExpr)
	if !ok || unparen(parent.X) != sel {
		return false
	}
	call, ok := stack[len(stack)-2].(*ast.CallExpr)
	return ok && unparen(call.Fun) == parent
}

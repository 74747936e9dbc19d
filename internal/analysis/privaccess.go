// privaccess.go is the static half of the privatization-safety criterion
// of Khyzha/Gotsman/Attiya ("Safe Privatization in TM", PAPERS.md): an
// uninstrumented access is observationally safe only on data private to
// the accessor. Since stm.Private is the only uninstrumented door, and a
// Private exists only after a privatizing commit (Thread.Privatize) or
// while no thread is open (STM.Quiescent), the type carries the question
// of *whether* data is private; what remains for the analyzer is *when* a
// handle may be used. Two rules:
//
//  1. Reachability (interprocedural, via the module call graph): a
//     transaction body must never reach Private's Load, Store or Follow —
//     not directly and not through a wrapper in any package. An
//     uninstrumented access inside a transaction bypasses orec conflict
//     detection entirely, so neither the fence nor validation can order
//     it.
//
//  3. Retire flow (intraprocedural, position-ordered): an extent handed to
//     a Retire method belongs to the epoch-based reclaimer (internal/
//     reclaim, CORRECTNESS.md §14) — once its epoch passes it may be
//     poisoned or reused by another thread — so a later access through
//     the handle whose Base was retired, or through the retired address,
//     is a use-after-free in waiting. Privatization made the access legal;
//     retirement ends the license. Reassigning the variable kills the
//     taint: it names a different extent from then on.
//
// Rule 2 — "an address a transaction loaded may be accessed directly only
// if that transaction also stored" — checked syntactically what
// Thread.Privatize now checks at run time (ErrNothingPrivatized), and is
// gone with the untyped door it guarded.
//
// Soundness limits (path-insensitive, type-based; CORRECTNESS.md §12):
// handles laundered through heap-resident structures or channels, or
// passed across function boundaries, lose their rule-3 taint, and calls
// through function values resolve to nothing. The rules are tripwires for
// the common shapes, not a verifier. Suppress deliberate exceptions with
// //stmlint:ignore privaccess <reason> — the reason is the proof
// obligation.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// PrivAccess returns the privaccess analyzer.
func PrivAccess() *Analyzer {
	return &Analyzer{
		Name: "privaccess",
		Doc:  "uninstrumented Private access must stay outside transactions, and never follow the Retire of its extent",
		Run:  runPrivAccess,
	}
}

// isPrivateAccessor reports whether fn is an uninstrumented-access entry
// point: a module method named Load, Store or Follow of a type named
// Private (stm.Private, and any fixture or future stand-in following the
// naming contract).
func (p *Program) isPrivateAccessor(fn *types.Func) bool {
	return p.isPrivateMethod(fn, "Load", "Store", "Follow")
}

// isPrivateMethod reports whether fn is a module method of a type named
// Private with one of the given names.
func (p *Program) isPrivateMethod(fn *types.Func, names ...string) bool {
	if fn == nil || !p.declaredInModule(fn) {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	if n := namedOf(sig.Recv().Type()); n == nil || n.Obj().Name() != "Private" {
		return false
	}
	for _, name := range names {
		if fn.Name() == name {
			return true
		}
	}
	return false
}

// isRetireMethod reports whether fn is a reclamation entry point: a module
// method named Retire (stm.Thread, core.Thread, reclaim.Local and
// reclaim.Reclaimer — and any fixture or future stand-in following the
// naming contract). Which argument carries the extent is decided by type,
// not position: Reclaimer.Retire takes a shard index first.
func (p *Program) isRetireMethod(fn *types.Func) bool {
	if fn == nil || !p.declaredInModule(fn) || fn.Name() != "Retire" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// isAddrType reports whether t names the transactional-address type (a
// module named type called Addr, through aliases — stm.Addr = heap.Addr —
// and one pointer).
func isAddrType(t types.Type) bool {
	if t == nil {
		return false
	}
	n := namedOf(types.Unalias(t))
	return n != nil && n.Obj().Name() == "Addr"
}

func runPrivAccess(p *Program) []Diagnostic {
	mayAccess := p.CallGraph().Reaches(p.isPrivateAccessor)

	var diags []Diagnostic
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				ast.Inspect(fd, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok || !isAtomicBlockCall(p, pkg.Info, call) {
						return true
					}
					for _, arg := range call.Args {
						if lit, ok := unparen(arg).(*ast.FuncLit); ok {
							diags = append(diags, p.checkBodyReachesPrivate(pkg, lit.Body, mayAccess)...)
						}
					}
					return true
				})
				diags = append(diags, p.checkRetireFlow(pkg, fd, mayAccess)...)
			}
		}
	}
	// Nested atomic literals make the outer body walk revisit the inner
	// one; drop exact duplicates rather than complicating the traversal.
	seen := make(map[string]bool)
	out := diags[:0]
	for _, d := range diags {
		key := d.String()
		if !seen[key] {
			seen[key] = true
			out = append(out, d)
		}
	}
	return out
}

// checkBodyReachesPrivate flags references inside an atomic body that are,
// or transitively reach, a Private accessor (rule 1). References rather
// than calls: taking the method value (load := p.Load) arms the same
// hazard.
func (p *Program) checkBodyReachesPrivate(pkg *Package, body ast.Node, mayAccess map[*types.Func]Edge) []Diagnostic {
	info := pkg.Info
	cg := p.CallGraph()
	var diags []Diagnostic
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		fn, ok := info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		if p.isPrivateAccessor(fn) {
			diags = append(diags, Diagnostic{
				Pos:  p.Fset.Position(id.Pos()),
				Rule: "privaccess",
				Message: fmt.Sprintf(
					"transaction body uses uninstrumented %s; uninstrumented access inside a transaction bypasses orec conflict detection and breaks privatization safety",
					funcDisplayName(fn)),
			})
			return true
		}
		if first, ok := mayAccess[fn]; ok {
			diags = append(diags, Diagnostic{
				Pos:  p.Fset.Position(id.Pos()),
				Rule: "privaccess",
				Message: fmt.Sprintf(
					"transaction body calls %s, which reaches an uninstrumented access (%s); uninstrumented access inside a transaction bypasses orec conflict detection",
					funcDisplayName(fn),
					cg.PathString(first, mayAccess, p.isPrivateAccessor)),
			})
		}
		return true
	})
	return diags
}

// checkRetireFlow is rule 3: a position-ordered scan of one declaration
// flagging uninstrumented access to an extent that was already handed to a
// Retire method. A Retire call taints each Addr-typed argument that is an
// identifier, or the receiver of a Private's Base call (th.Retire(n.Base(),
// w) retires the handle n). A later accessor call whose receiver or
// arguments mention a tainted identifier — including derived expressions
// like h.Load(a+1) — is flagged, as is a call to a wrapper reaching an
// accessor with a tainted argument; reassigning the variable kills the
// taint. Function literals are skipped on both sides: they run at times
// source order cannot witness (atomic bodies are rule 1's business).
func (p *Program) checkRetireFlow(pkg *Package, fd *ast.FuncDecl, mayAccess map[*types.Func]Edge) []Diagnostic {
	info := pkg.Info
	retired := make(map[types.Object]token.Pos)
	var diags []Diagnostic
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			// The variable names a different extent from here on.
			for _, l := range n.Lhs {
				if id, ok := unparen(l).(*ast.Ident); ok {
					if obj := info.Uses[id]; obj != nil {
						delete(retired, obj)
					}
				}
			}
		case *ast.CallExpr:
			fn := CalleeOf(info, n)
			if fn == nil {
				return true
			}
			_, wraps := mayAccess[fn]
			switch {
			case p.isPrivateAccessor(fn) || wraps:
				var obj types.Object
				var rp token.Pos
				if p.isPrivateAccessor(fn) {
					obj, rp = retiredIdentIn(info, n.Fun, retired)
				}
				for _, arg := range n.Args {
					if obj == nil {
						obj, rp = retiredIdentIn(info, arg, retired)
					}
				}
				if obj == nil {
					return true
				}
				what := funcDisplayName(fn)
				if wraps {
					what = what + " (which reaches a Private access)"
				}
				diags = append(diags, Diagnostic{
					Pos:  p.Fset.Position(n.Pos()),
					Rule: "privaccess",
					Message: fmt.Sprintf(
						"%s uses %q, an extent retired to the reclaimer at %s; once its epoch passes the extent may be poisoned or reused by another thread, so uninstrumented access after Retire is a use-after-free",
						what, obj.Name(), p.relTo(rp)),
				})
			case p.isRetireMethod(fn):
				for _, arg := range n.Args {
					if obj := p.retiredBy(info, arg); obj != nil {
						retired[obj] = n.Pos()
					}
				}
			}
		}
		return true
	})
	return diags
}

// retiredBy returns the local variable a Retire argument hands to the
// reclaimer: an Addr-typed identifier, or the handle n of n.Base().
func (p *Program) retiredBy(info *types.Info, arg ast.Expr) types.Object {
	if !isAddrType(info.TypeOf(arg)) {
		return nil
	}
	id, ok := unparen(arg).(*ast.Ident)
	if call, isCall := unparen(arg).(*ast.CallExpr); isCall && p.isPrivateMethod(CalleeOf(info, call), "Base") {
		if sel, isSel := unparen(call.Fun).(*ast.SelectorExpr); isSel {
			id, ok = unparen(sel.X).(*ast.Ident)
		}
	}
	if !ok {
		return nil
	}
	if v, isVar := info.Uses[id].(*types.Var); isVar && !v.IsField() {
		return v
	}
	return nil
}

// retiredIdentIn returns the first identifier inside expr bound to a
// retired object, with its retire position.
func retiredIdentIn(info *types.Info, expr ast.Expr, retired map[types.Object]token.Pos) (types.Object, token.Pos) {
	var obj types.Object
	var pos token.Pos
	ast.Inspect(expr, func(m ast.Node) bool {
		if obj != nil {
			return false
		}
		if id, ok := m.(*ast.Ident); ok {
			if o := info.Uses[id]; o != nil {
				if rp, ok := retired[o]; ok {
					obj, pos = o, rp
				}
			}
		}
		return true
	})
	return obj, pos
}

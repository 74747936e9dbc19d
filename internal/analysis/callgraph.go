// callgraph.go builds the module-wide static call graph the
// interprocedural analyzers (privaccess, yieldsite, and txnpurity's
// cross-package closure) share. PR 1's analyzers were intra-package —
// txnpurity followed helpers only inside the package declaring the atomic
// body — which left exactly the escape the paper's discipline cares about:
// a wrapper in another package that performs an uninstrumented access on
// behalf of a transaction. The call graph lifts that restriction with
// nothing beyond go/ast + go/types.
//
// Precision notes (all documented limits are over-approximations on the
// edge side and under-approximations on the resolution side):
//
//   - Edges are recorded for every *reference* to a declared function, not
//     only call positions: taking a method value (store := p.Store)
//     creates an edge, because the referencing function can invoke it
//     later. This makes "reaches" sound for stored function values at the
//     cost of occasionally over-approximating.
//   - Calls through interface methods resolve to the abstract
//     *types.Func of the interface method — a graph leaf. Predicates that
//     care (yieldsite's cm.Wait) match the abstract object by name and
//     declaring package; everything else treats interface dispatch as
//     opaque. Calls through plain function values resolve to nothing.
//   - Calls made inside a function literal are attributed to the function
//     declaration lexically enclosing the literal (the literal may run
//     later or never; for may-analyses the over-approximation is sound).
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// FuncInfo ties a declared module function to its source.
type FuncInfo struct {
	Pkg  *Package
	Decl *ast.FuncDecl
}

// Edge is one reference from a declared function to another function
// object (declared, imported, or abstract interface method).
type Edge struct {
	Callee *types.Func
	Pos    token.Pos
}

// CallGraph is the module-wide function reference graph.
type CallGraph struct {
	prog *Program
	// decls indexes every function and method declared in an analyzed
	// package.
	decls map[*types.Func]*FuncInfo
	// edges lists, per declared function, every function object its body
	// references (in source order, duplicates kept).
	edges map[*types.Func][]Edge
}

// CallGraph returns the program's call graph, building it on first use.
func (p *Program) CallGraph() *CallGraph {
	if p.cg == nil {
		p.cg = buildCallGraph(p)
	}
	return p.cg
}

func buildCallGraph(p *Program) *CallGraph {
	g := &CallGraph{
		prog:  p,
		decls: make(map[*types.Func]*FuncInfo),
		edges: make(map[*types.Func][]Edge),
	}
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.decls[obj] = &FuncInfo{Pkg: pkg, Decl: fd}
				g.edges[obj] = referencedFuncs(pkg.Info, fd.Body)
			}
		}
	}
	return g
}

// referencedFuncs lists every function object the body mentions, in source
// order.
func referencedFuncs(info *types.Info, body ast.Node) []Edge {
	var out []Edge
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if fn, ok := info.Uses[id].(*types.Func); ok {
			out = append(out, Edge{Callee: fn, Pos: id.Pos()})
		}
		return true
	})
	return out
}

// Decl returns the declaration info for a module function, or nil for
// imported, abstract, or synthetic functions.
func (g *CallGraph) Decl(fn *types.Func) *FuncInfo { return g.decls[fn] }

// Reaches computes the set of declared functions from which a function
// satisfying pred is reachable through the reference graph. The result
// maps each reaching function to the first edge of one witness path
// (an edge whose callee satisfies pred, or whose callee reaches one).
// Functions that themselves satisfy pred are not included on their own
// account — the map answers "does calling fn lead to pred", so a
// pred-satisfying function appears only if it also calls one.
func (g *CallGraph) Reaches(pred func(*types.Func) bool) map[*types.Func]Edge {
	reach := make(map[*types.Func]Edge)
	for changed := true; changed; {
		changed = false
		for fn, edges := range g.edges {
			if _, ok := reach[fn]; ok {
				continue
			}
			for _, e := range edges {
				if e.Callee == fn {
					continue
				}
				if pred(e.Callee) {
					reach[fn] = e
					changed = true
					break
				}
				if _, ok := reach[e.Callee]; ok {
					reach[fn] = e
					changed = true
					break
				}
			}
		}
	}
	return reach
}

// PathString renders a witness path starting at the edge leaving fn, for
// diagnostics: "helper → wrapper → Private.Store". The path is cut off
// with an ellipsis after a few hops; it exists to orient the reader, not
// to be a proof.
func (g *CallGraph) PathString(first Edge, reach map[*types.Func]Edge, pred func(*types.Func) bool) string {
	var parts []string
	e := first
	for i := 0; i < 6; i++ {
		parts = append(parts, funcDisplayName(e.Callee))
		if pred(e.Callee) {
			return strings.Join(parts, " → ")
		}
		next, ok := reach[e.Callee]
		if !ok {
			break
		}
		e = next
	}
	return strings.Join(append(parts, "…"), " → ")
}

// funcDisplayName renders a function for diagnostics: Recv.Name for
// methods, pkg.Name for cross-package functions, bare Name otherwise.
func funcDisplayName(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if n := namedOf(sig.Recv().Type()); n != nil {
			return n.Obj().Name() + "." + fn.Name()
		}
		return fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// CalleeOf resolves the static callee of a call expression: a declared
// function, an imported function, a concrete method, or an abstract
// interface method. It returns nil for calls through function values,
// builtins, and type conversions.
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// declaredInModule reports whether fn belongs to a package of the analyzed
// module.
func (p *Program) declaredInModule(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	return path == p.ModPath || strings.HasPrefix(path, p.ModPath+"/")
}

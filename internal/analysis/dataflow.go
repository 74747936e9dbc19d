// dataflow.go is a small forward dataflow engine over one function body:
// reaching-definition taint propagation on local variables, computed as a
// fixpoint so loops converge. It is deliberately path-insensitive — facts
// from all branches merge (union), and a definition reaches every later
// (and, through loop back-edges, earlier) use — which makes the analyses
// built on it (privaccess) sound for may-questions at the cost of
// precision: "this value MAY derive from a transactional load" never
// misses a derivation the AST can express, but can report one on a path
// that never executes. The soundness holes that remain are the ones a
// type-based engine cannot see: values laundered through the heap (stored
// into a struct field or slice and read back) and through channels lose
// their taint. CORRECTNESS.md §12 lists them.
package analysis

import (
	"go/ast"
	"go/types"
)

// Taint is a small bitset of dataflow facts attached to values.
type Taint uint8

const (
	// TaintTxAddr marks a value derived from a transactional load
	// (tx.Load / tx.LoadAddr) — privaccess's "address observed inside a
	// transaction".
	TaintTxAddr Taint = 1 << iota
	// TaintEscaped marks a value derived from a variable that escaped a
	// transaction body carrying TaintTxAddr without a privatizing write.
	TaintEscaped
)

// Flow is the fixpoint result of one dataflow pass.
type Flow struct {
	info   *types.Info
	taints map[types.Object]Taint
	gen    func(*ast.CallExpr) Taint
}

// RunFlow propagates taints through body until the per-object taint map
// stops changing. seed pre-taints objects (variables defined outside body
// whose values flow in); gen introduces taint at call expressions (nil for
// none). Propagation covers assignments, short variable declarations, var
// specs, range statements, and expression structure (arithmetic, indexing,
// conversions, parens, unary ops); calls other than conversions produce
// only what gen says, so taint does not leak through arbitrary function
// returns.
func RunFlow(body ast.Node, info *types.Info, seed map[types.Object]Taint, gen func(*ast.CallExpr) Taint) *Flow {
	f := &Flow{info: info, taints: make(map[types.Object]Taint), gen: gen}
	for o, t := range seed {
		f.taints[o] = t
	}
	// Fixpoint: a body with loops needs at most one extra pass per
	// dependency chain through a back-edge; the cap is a safety net, not a
	// tuning knob.
	for pass := 0; pass < 64; pass++ {
		if !f.propagate(body) {
			return f
		}
	}
	return f
}

// propagate runs one pass over body, returning whether anything changed.
func (f *Flow) propagate(body ast.Node) bool {
	changed := false
	merge := func(obj types.Object, t Taint) {
		if obj == nil || t == 0 {
			return
		}
		if old := f.taints[obj]; old|t != old {
			f.taints[obj] = old | t
			changed = true
		}
	}
	lhsObj := func(e ast.Expr) types.Object {
		id, ok := unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		if obj := f.info.Defs[id]; obj != nil {
			return obj
		}
		return f.info.Uses[id]
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
				// Tuple assignment from one expression (call, map index,
				// type assert): every LHS gets the RHS taint.
				t := f.ExprTaint(n.Rhs[0])
				for _, l := range n.Lhs {
					merge(lhsObj(l), t)
				}
				break
			}
			for i, l := range n.Lhs {
				if i < len(n.Rhs) {
					merge(lhsObj(l), f.ExprTaint(n.Rhs[i]))
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				switch {
				case len(n.Values) == len(n.Names):
					merge(f.info.Defs[name], f.ExprTaint(n.Values[i]))
				case len(n.Values) == 1:
					merge(f.info.Defs[name], f.ExprTaint(n.Values[0]))
				}
			}
		case *ast.RangeStmt:
			t := f.ExprTaint(n.X)
			if n.Key != nil {
				merge(lhsObj(n.Key), t)
			}
			if n.Value != nil {
				merge(lhsObj(n.Value), t)
			}
		}
		return true
	})
	return changed
}

// ExprTaint computes the taint of an expression under the current state.
func (f *Flow) ExprTaint(e ast.Expr) Taint {
	switch e := e.(type) {
	case *ast.Ident:
		obj := f.info.Uses[e]
		if obj == nil {
			obj = f.info.Defs[e]
		}
		return f.taints[obj]
	case *ast.ParenExpr:
		return f.ExprTaint(e.X)
	case *ast.UnaryExpr:
		return f.ExprTaint(e.X)
	case *ast.StarExpr:
		return f.ExprTaint(e.X)
	case *ast.BinaryExpr:
		return f.ExprTaint(e.X) | f.ExprTaint(e.Y)
	case *ast.IndexExpr:
		return f.ExprTaint(e.X) | f.ExprTaint(e.Index)
	case *ast.SliceExpr:
		return f.ExprTaint(e.X)
	case *ast.CallExpr:
		// A conversion (stm.Addr(w), uint64(a)) preserves its operand's
		// taint; a real call contributes only what gen assigns it.
		if tv, ok := f.info.Types[e.Fun]; ok && tv.IsType() {
			var t Taint
			for _, a := range e.Args {
				t |= f.ExprTaint(a)
			}
			return t
		}
		if f.gen != nil {
			return f.gen(e)
		}
		return 0
	}
	return 0
}

package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// TxnPurity returns the txnpurity analyzer.
//
// Invariant (doomed-transaction failure mode, CORRECTNESS.md §2): the body
// of an atomic block may execute several times — aborted attempts are
// rolled back and retried, and a *doomed* attempt may run briefly on
// inconsistent reads before validation catches it. Any irrevocable side
// effect inside the body therefore escapes the rollback: sleeps stall the
// whole commit pipeline (every fence waits on the central list's oldest
// entry), channel operations and mutex acquisitions can deadlock against a
// doomed attempt that will never commit, and os/net I/O is replayed once
// per retry. The rule checks every function literal passed to
// stm.Atomic/core.Run, plus (transitively, via the module call graph) the
// module functions it calls in any package — except the runtime packages
// themselves (txnOpaquePkgs): calls into the STM runtime (tx.Load and
// everything under it, down to spin.Backoff.Wait) are the instrumented
// operations the rule exists to protect, not violations, so the runtime is
// an opaque leaf.
func TxnPurity() *Analyzer {
	return &Analyzer{
		Name: "txnpurity",
		Doc:  "transaction bodies must not sleep, use channels, lock mutexes, launch goroutines, or do os/net I/O",
		Run:  runTxnPurity,
	}
}

// impurity is one irrevocable effect found in a function body.
type impurity struct {
	pos  token.Pos
	what string
}

type purityChecker struct {
	p *Program
	// summaries memoizes per-function impurity lists for the transitive
	// module-wide closure; inProgress breaks recursion cycles.
	summaries  map[*types.Func][]impurity
	inProgress map[*types.Func]bool
}

// txnOpaquePkgs names the module packages the transitive purity closure
// does not descend into: the runtime itself (defaultYieldScope — its wait
// loops sleep and park by design, under the fence/CM protocols the rule
// protects) plus the tooling seams (fault injection, the schedule
// explorer, statistics, the serial token, the deterministic RNG).
var txnOpaquePkgs = map[string]bool{
	"failpoint": true, "sched": true, "stats": true,
	"rng": true, "serial": true, "priv": true,
}

func (pc *purityChecker) opaquePkg(name string) bool {
	return txnOpaquePkgs[name] || defaultYieldScope[name]
}

func runTxnPurity(p *Program) []Diagnostic {
	var diags []Diagnostic
	pc := &purityChecker{
		p:          p,
		summaries:  make(map[*types.Func][]impurity),
		inProgress: make(map[*types.Func]bool),
	}
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isAtomicBlockCall(p, pkg.Info, call) {
					return true
				}
				for _, arg := range call.Args {
					lit, ok := unparen(arg).(*ast.FuncLit)
					if !ok {
						continue
					}
					for _, imp := range pc.checkBody(pkg, lit.Body) {
						diags = append(diags, Diagnostic{
							Pos:     p.Fset.Position(imp.pos),
							Rule:    "txnpurity",
							Message: "transaction body " + imp.what + "; atomic blocks may re-execute and must not perform irrevocable effects",
						})
					}
				}
				return true
			})
		}
	}
	return diags
}

// isAtomicBlockCall recognizes the entry points that execute a function
// literal transactionally: a method named Atomic or Privatize, or a
// function named Run, declared inside this module (stm.Thread.Atomic and
// Privatize, core.Run, and the test fixtures' stand-ins). Calls without a
// literal argument are never matched.
func isAtomicBlockCall(p *Program, info *types.Info, call *ast.CallExpr) bool {
	var id *ast.Ident
	switch fun := unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return false
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	if path := fn.Pkg().Path(); path != p.ModPath && !strings.HasPrefix(path, p.ModPath+"/") {
		return false
	}
	switch fn.Name() {
	case "Atomic", "Privatize":
		return fn.Type().(*types.Signature).Recv() != nil
	case "Run":
		// The schedule explorer's Run (package sched) shares the name but
		// executes *worker goroutine* bodies, serialized under the
		// controller — not transaction bodies. Its literal arguments are
		// ordinary concurrent code and may block.
		return fn.Pkg().Name() != "sched"
	default:
		return false
	}
}

// checkBody scans one body (declared in pkg) for impurities, following
// calls to module functions outside the opaque runtime (their findings are
// reported at the call site, with the callee named).
func (pc *purityChecker) checkBody(pkg *Package, body ast.Node) []impurity {
	var out []impurity
	info := pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			out = append(out, impurity{n.Pos(), "performs a channel send"})
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				out = append(out, impurity{n.Pos(), "performs a channel receive"})
			}
		case *ast.SelectStmt:
			out = append(out, impurity{n.Pos(), "blocks in a select statement"})
		case *ast.GoStmt:
			out = append(out, impurity{n.Pos(), "launches a goroutine"})
		case *ast.RangeStmt:
			if t, ok := info.Types[n.X]; ok {
				if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
					out = append(out, impurity{n.Pos(), "ranges over a channel"})
				}
			}
		case *ast.CallExpr:
			out = append(out, pc.checkCall(pkg, n)...)
		}
		return true
	})
	return out
}

// checkCall classifies one call inside a transaction body.
func (pc *purityChecker) checkCall(pkg *Package, call *ast.CallExpr) []impurity {
	info := pkg.Info
	var id *ast.Ident
	switch fun := unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return nil
	}
	switch obj := info.Uses[id].(type) {
	case *types.Builtin:
		if obj.Name() == "close" {
			return []impurity{{call.Pos(), "closes a channel"}}
		}
	case *types.Func:
		// Allowlist: the failpoint package is the sanctioned fault-injection
		// seam — its hooks may sleep or park by design, under test control
		// only, so failpoint.Eval inside an atomic body is not a violation
		// (same name-based precedent as the spin package below). The sched
		// package rides the same seam: sched.Point is the explorer's yield
		// point (a named failpoint.Eval) and parks the calling goroutine
		// under the controller by design.
		if p := obj.Pkg(); p != nil && (p.Name() == "failpoint" || p.Name() == "sched") {
			return nil
		}
		if what := impureCallee(obj); what != "" {
			return []impurity{{call.Pos(), what}}
		}
		// Transitive closure over module callees in any non-opaque
		// package: calls into the STM runtime itself (tx.Load and
		// everything beneath it) are the instrumented operations the rule
		// exists to protect, not violations, so runtime packages stay
		// opaque leaves.
		samePkg := obj.Pkg() == pkg.Types
		if samePkg || (pc.p.declaredInModule(obj) && !pc.opaquePkg(obj.Pkg().Name())) {
			if inner := pc.summarize(obj); len(inner) > 0 {
				name := obj.Name()
				if !samePkg {
					name = funcDisplayName(obj)
				}
				return []impurity{{call.Pos(), fmt.Sprintf("calls %s, which %s", name, inner[0].what)}}
			}
		}
	}
	return nil
}

// impureCallee classifies callees that are irrevocable by themselves,
// returning a description or "".
func impureCallee(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return ""
	}
	path, name := pkg.Path(), fn.Name()
	switch {
	case path == "time" && (name == "Sleep" || name == "After" || name == "Tick" || name == "NewTimer" || name == "NewTicker"):
		return "calls time." + name
	case path == "os" || strings.HasPrefix(path, "os/") ||
		path == "net" || strings.HasPrefix(path, "net/"):
		return "performs I/O via " + pkg.Name() + "." + name
	}
	// Mutex acquisition: Lock/RLock on sync's or this repo's spin lock
	// types. A doomed transaction that aborts between Lock and Unlock
	// leaves the mutex held forever.
	if name == "Lock" || name == "RLock" {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if n := namedOf(sig.Recv().Type()); n != nil && n.Obj().Pkg() != nil {
				if rp := n.Obj().Pkg(); rp.Path() == "sync" || rp.Name() == "spin" {
					return "acquires a " + rp.Name() + "." + n.Obj().Name()
				}
			}
		}
	}
	return ""
}

// summarize computes (memoized) the impurities of a module function or
// method with a known body, located through the call graph's declaration
// index regardless of package.
func (pc *purityChecker) summarize(fn *types.Func) []impurity {
	if s, ok := pc.summaries[fn]; ok {
		return s
	}
	if pc.inProgress[fn] {
		return nil
	}
	fi := pc.p.CallGraph().Decl(fn)
	if fi == nil || fi.Decl.Body == nil {
		pc.summaries[fn] = nil
		return nil
	}
	pc.inProgress[fn] = true
	s := pc.checkBody(fi.Pkg, fi.Decl.Body)
	delete(pc.inProgress, fn)
	pc.summaries[fn] = s
	return s
}

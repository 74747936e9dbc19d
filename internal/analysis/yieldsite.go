// yieldsite.go is the static answer to the bug class PR 5 found
// dynamically: the core/retry/cm-wait starvation, a runtime wait loop
// with no sched-visible yield point, which the deterministic schedule
// explorer (internal/sched) can neither serialize nor shake out because
// it only gains control at yield seams. The analyzer flags poll loops in
// runtime packages — loops that re-read atomic state they never write —
// that contain no recognized yield.
//
// Classification:
//
//   - A loop is a poll-loop candidate if its condition reads atomic state
//     (directly, or through a module function that transitively performs
//     an atomic load), or if it is an infinite `for {`/`for i := 0; ; i++`
//     loop whose body reads atomic state. Bounded scans (`for i := 0;
//     i < n; i++` over plain memory) and range loops are not candidates.
//   - A candidate is exempt if the loop itself performs an atomic
//     *write* (Store/Add/Swap/CompareAndSwap/And/Or): a CAS loop's wait
//     is bounded by rivals' progress, not by their scheduling — it is a
//     progress loop, not a poll loop. Only lexical writes count;
//     transitive writes would exonerate fence loops whose slow path
//     CASes internally while the fence itself still spins.
//   - A candidate passes if it contains a sched-visible yield: a call to
//     failpoint.Eval or sched.Point (the explorer's seams), a spin
//     package wait (Backoff.Wait, Until, Mutex.Lock), a module method
//     named Wait (an interface's Wait, the ticket queues), or a module
//     function that transitively reaches one.
//
// Soundness limits (CORRECTNESS.md §12): a yield inside a nested function
// literal counts even though the literal may never run; calls through
// plain function values resolve to nothing, so a yield hidden behind one
// is missed (over-flagging) while an atomic read behind one is missed
// too (under-flagging); and obstruction-free double-check loops (read,
// re-validate, retry on interference) match the poll shape textually —
// they retry on *change* where a poll loop retries on *stillness*, a
// distinction no lexical rule sees. Those sites carry
// //stmlint:ignore yieldsite <reason> with the termination argument as
// the reason.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// defaultYieldScope names the runtime packages whose wait discipline the
// schedule explorer depends on. Harness and tooling packages (priv, bench,
// sched itself, failpoint, stats) run as ordinary concurrent code under
// the Go scheduler and are out of scope.
var defaultYieldScope = map[string]bool{
	"stm": true, "core": true, "spin": true, "ticket": true,
	"txnlist": true, "orec": true, "clock": true, "heap": true,
	"logs": true,
}

// YieldSite returns the yieldsite analyzer over the default runtime scope.
func YieldSite() *Analyzer { return NewYieldSite(defaultYieldScope) }

// NewYieldSite returns a yieldsite analyzer scoped to the given package
// names.
func NewYieldSite(scope map[string]bool) *Analyzer {
	return &Analyzer{
		Name: "yieldsite",
		Doc:  "runtime poll loops (re-reading atomic state they never write) must contain a sched-visible yield point",
		Run: func(p *Program) []Diagnostic {
			return runYieldSite(p, scope)
		},
	}
}

// isYieldPrimitive reports whether fn is a sched-visible yield point.
func isYieldPrimitive(p *Program) func(*types.Func) bool {
	return func(fn *types.Func) bool {
		if fn == nil || fn.Pkg() == nil {
			return false
		}
		switch fn.Pkg().Name() {
		case "failpoint":
			if fn.Name() == "Eval" {
				return true
			}
		case "sched":
			if fn.Name() == "Point" {
				return true
			}
		case "spin":
			switch fn.Name() {
			case "Wait", "Until", "Lock":
				return true
			}
		}
		// A module method named Wait: an interface's Wait (resolved
		// abstractly), the ticket queues' turn waits.
		if fn.Name() == "Wait" && p.declaredInModule(fn) {
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true
			}
		}
		return false
	}
}

// isAtomicLoadFn reports whether fn is an atomic read: a Load-prefixed
// method on a sync/atomic type, or a Load* function from sync/atomic
// itself. CompareAndSwap and Swap are classified as writes, not reads —
// they are how progress loops make progress.
func isAtomicLoadFn(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	if !strings.HasPrefix(fn.Name(), "Load") {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return isSyncAtomicType(deref(sig.Recv().Type()))
	}
	return fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic"
}

// isAtomicWriteFn reports whether fn is an atomic write or read-modify-
// write on a sync/atomic type (or sync/atomic package function).
func isAtomicWriteFn(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	name := fn.Name()
	write := false
	for _, prefix := range [...]string{"Store", "Add", "Swap", "CompareAndSwap", "And", "Or"} {
		if strings.HasPrefix(name, prefix) {
			write = true
			break
		}
	}
	if !write {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return isSyncAtomicType(deref(sig.Recv().Type()))
	}
	return fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic"
}

// callsMatching reports whether node lexically contains a call whose
// static callee satisfies direct, or (when trans is non-nil) resolves to a
// module function in the transitive closure.
func callsMatching(info *types.Info, node ast.Node, direct func(*types.Func) bool, trans map[*types.Func]Edge) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := CalleeOf(info, call)
		if fn == nil {
			return true
		}
		if direct(fn) {
			found = true
			return false
		}
		if trans != nil {
			if _, ok := trans[fn]; ok {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// condPollReads reports whether a loop condition reads atomic state in a
// poll position. An atomic read under an ordered comparison (<, <=, >, >=)
// is a bound check — `for i := 0; i < int(s.hi.Load()); i++` is a scan
// whose extent happens to be atomic — while equality tests and boolean
// negations are polls: the loop is waiting for the value to become
// something (`for !done.Load()`, the yieldsite fixture's poll loops).
func condPollReads(info *types.Info, cond ast.Expr, mayRead map[*types.Func]Edge) bool {
	if e, ok := unparen(cond).(*ast.BinaryExpr); ok {
		switch e.Op {
		case token.LSS, token.LEQ, token.GTR, token.GEQ:
			return false
		case token.LAND, token.LOR:
			return condPollReads(info, e.X, mayRead) ||
				condPollReads(info, e.Y, mayRead)
		}
	}
	return callsMatching(info, cond, isAtomicLoadFn, mayRead)
}

func runYieldSite(p *Program, scope map[string]bool) []Diagnostic {
	cg := p.CallGraph()
	yieldPred := isYieldPrimitive(p)
	mayYield := cg.Reaches(yieldPred)
	mayRead := cg.Reaches(isAtomicLoadFn)

	var diags []Diagnostic
	for _, pkg := range p.Pkgs {
		if !scope[pkg.Types.Name()] {
			continue
		}
		info := pkg.Info
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				// The yield primitives themselves (spin.Backoff.Wait and
				// friends) implement the waiting; their internal loops are
				// not poll loops by construction.
				if fn, ok := info.Defs[fd.Name].(*types.Func); ok && yieldPred(fn) {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					loop, ok := n.(*ast.ForStmt)
					if !ok {
						return true
					}
					infinite := loop.Cond == nil
					condReads := loop.Cond != nil &&
						condPollReads(info, loop.Cond, mayRead)
					if !infinite && !condReads {
						return true
					}
					if infinite && !callsMatching(info, loop.Body, isAtomicLoadFn, mayRead) {
						return true
					}
					if callsMatching(info, loop, isAtomicWriteFn, nil) {
						return true // progress loop: writes the state it reads
					}
					if callsMatching(info, loop, yieldPred, mayYield) {
						return true
					}
					diags = append(diags, Diagnostic{
						Pos:  p.Fset.Position(loop.Pos()),
						Rule: "yieldsite",
						Message: "poll loop re-reads atomic state it never writes but contains no sched-visible yield point " +
							"(failpoint.Eval, sched.Point, spin wait, or cm.Wait); the schedule explorer cannot serialize it " +
							"and a rival parked behind it can starve",
					})
					return true
				})
			}
		}
	}
	return diags
}

// Package shardsafe verifies the conservative parallel runner's isolation
// contract (DESIGN §16): during an epoch every shard runs on its own
// engine, and the ONLY way state crosses shards is the fabric's mailbox
// machinery, drained single-threaded at epoch barriers. Three checks,
// each one a way that contract has nearly been broken:
//
//  1. Barrier confinement. A function whose doc comment carries
//     //qpip:barrier (fabric's DrainMailboxes, core's exchange) runs with
//     no shard running; calling one from ordinary simulated code would
//     inject cross-shard events mid-epoch, into engines still running.
//     Barrier functions may be called only from the shard runner
//     (internal/sim/par), from other barrier functions, or from harness
//     code outside the simulation.
//
//  2. Runner discipline. internal/sim/par coordinates engines from
//     outside all of them: a call it made into simulated code would run
//     inside no engine's event, on no shard's clock, on the wrong side of
//     the determinism fence. The runner may only drive engines through
//     the coordination surface (Run, RunUntil, NextAt, Now) and call
//     barrier functions at barriers; any other call edge into a
//     simulated package is a finding. (The Exchange hook is a
//     func value bound by core — func-value calls don't even form graph
//     edges, which is the point: par cannot name simulated code.)
//
//  3. Foreign-engine scheduling. Inside simulated packages, scheduling
//     (At / After / Spawn) is legitimate on your OWN engine — held
//     directly (eng) or one field away (n.eng, k.eng). An engine reached
//     through a deeper chain (l.k.eng, peer.nic.eng) is how code reaches
//     ACROSS a component boundary, which under sharding can be a foreign
//     shard's engine, whose clock may stand anywhere in the epoch: a
//     determinism hole. The fabric (whose mailboxes are exactly this,
//     done safely), the engine's own package, and core's wiring layer are
//     exempt; everywhere else the deep chain is flagged and the few
//     legitimate same-shard cases carry a reasoned //lint:qpip-allow
//     shardsafe.
//
// The depth heuristic is deliberately syntactic: ownership of an engine
// is a design property the type system doesn't encode, so the check
// draws the line where the repo's idiom draws it (components store their
// own engine one field deep) and makes anything beyond that justify
// itself in a suppression comment.
package shardsafe

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis/framework"
	"repro/internal/analysis/interproc"
)

const name = "shardsafe"

// BarrierAnnotation marks functions that run only at epoch barriers.
const BarrierAnnotation = "qpip:barrier"

// Analyzer is the whole-program shard-isolation check.
var Analyzer = &interproc.Analyzer{
	Name: name,
	Doc:  "verify shard isolation: //qpip:barrier confinement, runner call discipline, and no scheduling on engines reached across component boundaries",
	Run:  run,
}

// engineMethods the runner may call: the coordination surface.
var runnerAllowed = map[string]bool{"Run": true, "RunUntil": true, "NextAt": true, "Now": true}

// schedulers are the engine methods that inject events or processes.
var schedulers = map[string]bool{"At": true, "After": true, "Spawn": true}

// deepExempt lists package suffixes exempt from the foreign-engine check:
// the mailbox machinery itself, the engine package, and core's wiring.
var deepExempt = []string{"internal/fabric", "internal/sim", "internal/sim/par", "internal/core"}

func run(pass *interproc.Pass) error {
	g := pass.Prog.Graph

	for _, n := range g.All() {
		// Check 1: barrier confinement, reported at the offending call site.
		if n.Annotations[BarrierAnnotation] {
			for _, e := range n.In {
				callerPath := e.Caller.Unit.Path
				if framework.ShardRunnerPackage(callerPath) ||
					!framework.SimulatedPackage(callerPath) ||
					e.Caller.Annotations[BarrierAnnotation] {
					continue
				}
				pass.Reportf(e.Pos,
					"//%s function %s called from %s, which is neither the shard runner nor a barrier function: mailbox drains may only run at epoch barriers with no shard running",
					BarrierAnnotation, n.Name(), e.Caller.Name())
			}
		}

		// Check 2: runner discipline on every edge leaving internal/sim/par.
		if framework.ShardRunnerPackage(n.Unit.Path) {
			for _, e := range n.Out {
				calleePath := e.Callee.Unit.Path
				if !framework.SimulatedPackage(calleePath) || framework.ShardRunnerPackage(calleePath) {
					continue
				}
				if e.Callee.Annotations[BarrierAnnotation] {
					continue
				}
				if engineMethod(e.Callee.Fn) && runnerAllowed[e.Callee.Fn.Name()] {
					continue
				}
				pass.Reportf(e.Pos,
					"shard runner calls %s in simulated package %s: the runner may only drive engines (Run/RunUntil/NextAt/Now) and //%s functions",
					e.Callee.Name(), calleePath, BarrierAnnotation)
			}
		}
	}

	// Check 3: deep-chain scheduling, purely syntactic per unit.
	for _, u := range pass.Prog.Units {
		if !framework.SimulatedPackage(u.Path) || exemptFromDeep(u.Path) {
			continue
		}
		for _, f := range u.Files {
			ast.Inspect(f, func(x ast.Node) bool {
				call, ok := x.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok || !schedulers[sel.Sel.Name] {
					return true
				}
				fn, ok := u.Info.Uses[sel.Sel].(*types.Func)
				if !ok || !engineMethod(fn) {
					return true
				}
				if recv := ast.Unparen(sel.X); !shallowEngine(recv) {
					pass.Reportf(call.Lparen,
						"%s on an engine reached through %s: scheduling across a component boundary can target a foreign shard's engine — cross-shard work must go through the fabric mailboxes (drained at epoch barriers)",
						sel.Sel.Name, types.ExprString(recv))
				}
				return true
			})
		}
	}
	return nil
}

// engineMethod reports whether fn is a method of sim.Engine (matched by
// receiver type name plus package suffix, so fixtures can model it).
func engineMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Engine" || named.Obj().Pkg() == nil {
		return false
	}
	return framework.PathHasSuffix(named.Obj().Pkg().Path(), "internal/sim")
}

// shallowEngine reports whether the engine expression stays within the
// component's own state: a bare identifier (eng) or one field away
// (n.eng). Anything deeper crosses a component boundary.
func shallowEngine(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return true
	case *ast.SelectorExpr:
		_, ok := ast.Unparen(e.X).(*ast.Ident)
		return ok
	}
	return false
}

func exemptFromDeep(path string) bool {
	for _, suf := range deepExempt {
		if framework.PathHasSuffix(path, suf) {
			return true
		}
	}
	return false
}

// Package nogoroutine forbids raw goroutines and sync primitives in
// simulated packages.
//
// The simulation engine is single-threaded by contract: events fire in
// (timestamp, sequence) order, and "concurrency" inside the model is
// expressed as sim.Proc coroutines or sim.Server occupancy — both of
// which hand control back to the engine at deterministic points. sim.Proc
// itself runs on runtime coroutines (iter.Pull), so internal/sim needs no
// go statement and carries no allow for one. A raw
// `go` statement introduces true scheduler nondeterminism that no replay
// can pin down, and sync primitives (mutexes, wait groups, atomics) are
// the smell that someone is about to need one.
//
// Flagged, inside simulated packages (framework.SimulatedPackage):
//
//   - every `go` statement — model concurrency with sim.Proc / sim.Server;
//   - every reference to a symbol from sync or sync/atomic, including
//     sync.Pool: the datapath free lists built on sync.Pool are legal but
//     deliberate, so each carries a //lint:qpip-allow nogoroutine comment
//     explaining why object identity can't leak into event order.
//
// The parallel sweep harness lives in internal/bench, which is not a
// simulated package and therefore exempt, as are cmd/, scripts/ and
// _test.go files. No simulated package is exempt: the conservative shard
// runner (internal/sim/par) runs every epoch's shards in turn on the
// calling goroutine, so it too is held to the rule.
package nogoroutine

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis/framework"
	"repro/internal/analysis/interproc"
)

// receiverIsPool reports whether fn is a method of sync.Pool.
func receiverIsPool(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Pool"
}

// Analyzer is the nogoroutine check.
var Analyzer = &interproc.Analyzer{
	Name: "nogoroutine",
	Doc:  "forbid go statements and sync / sync-atomic primitives in simulated packages",
	Run:  run,
}

func run(pass *interproc.Pass) error {
	for _, u := range pass.Prog.Units {
		if !framework.SimulatedPackage(u.Path) {
			continue
		}
		for _, f := range u.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					pass.Reportf(n.Pos(),
						"go statement in simulated package %s: the engine is single-threaded; model concurrency with sim.Proc/sim.Server",
						u.Path)
				case *ast.SelectorExpr:
					// A qualified reference sync.X / atomic.X: resolve the
					// selected object and test its package of origin.
					obj := u.Info.Uses[n.Sel]
					if obj == nil || obj.Pkg() == nil {
						return true
					}
					switch obj.Pkg().Path() {
					case "sync", "sync/atomic":
						// Methods of sync.Pool (Get/Put) are not re-reported:
						// the pool's declaration is the single site that
						// carries (or is denied) the //lint:qpip-allow.
						if fn, isFn := obj.(*types.Func); isFn && receiverIsPool(fn) {
							return true
						}
						pass.Reportf(n.Pos(),
							"%s.%s in simulated package %s: simulated code must not synchronize; use sim.Proc/sim.Server (pooled free lists need an explicit //lint:qpip-allow)",
							obj.Pkg().Name(), obj.Name(), u.Path)
						return false // one report per reference, not per nested selector
					}
				}
				return true
			})
		}
	}
	return nil
}

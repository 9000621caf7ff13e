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
// The PR 2 parallel sweep harness lives in internal/bench, which is not a
// simulated package and therefore exempt, as are cmd/, scripts/ and
// _test.go files.
//
// One simulated package is allowlisted: internal/sim/par, the conservative
// parallel shard runner (framework.ShardRunnerPackage). Its entire purpose
// is to drive shard engines on worker goroutines and park them at epoch
// barriers, so go statements and sync primitives are legal there — and
// ONLY there. Model code must never reach for the runner's tools; it still
// expresses concurrency as sim.Proc/sim.Server inside one engine.
package nogoroutine

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis/framework"
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
var Analyzer = &framework.Analyzer{
	Name: "nogoroutine",
	Doc:  "forbid go statements and sync / sync-atomic primitives in simulated packages",
	Run:  run,
}

func run(pass *framework.Pass) error {
	if !framework.SimulatedPackage(pass.Pkg.Path()) {
		return nil
	}
	if framework.ShardRunnerPackage(pass.Pkg.Path()) {
		// The shard-runner allowlist: worker goroutines and barrier
		// synchronization are this package's whole job. The other simulated
		// invariants (simclock, maporder, ...) still apply to it.
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"go statement in simulated package %s: the engine is single-threaded; model concurrency with sim.Proc/sim.Server",
					pass.Pkg.Path())
			case *ast.SelectorExpr:
				// A qualified reference sync.X / atomic.X: resolve the
				// selected object and test its package of origin.
				obj := pass.TypesInfo.Uses[n.Sel]
				if obj == nil || obj.Pkg() == nil {
					return true
				}
				switch obj.Pkg().Path() {
				case "sync", "sync/atomic":
					// Methods of sync.Pool (Get/Put) are not re-reported:
					// the pool's declaration is the single site that carries
					// (or is denied) the //lint:qpip-allow.
					if fn, isFn := obj.(*types.Func); isFn && receiverIsPool(fn) {
						return true
					}
					pass.Reportf(n.Pos(),
						"%s.%s in simulated package %s: simulated code must not synchronize; use sim.Proc/sim.Server (pooled free lists need an explicit //lint:qpip-allow)",
						obj.Pkg().Name(), obj.Name(), pass.Pkg.Path())
					return false // one report per reference, not per nested selector
				}
			}
			return true
		})
	}
	return nil
}

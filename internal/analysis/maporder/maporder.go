// Package maporder flags range-over-map loops whose iteration order can
// leak into simulation behaviour — the classic Go determinism bug.
//
// Go randomizes map iteration order per run. Inside the simulator that is
// harmless when the loop body is commutative (zeroing accumulators,
// summing counters), but fatal when the body's effects are order
// sensitive: scheduling engine events, waking processes, enqueueing work,
// bumping trace counters, or accumulating results into a slice that is
// then consumed in order. Two runs with identical seeds then produce
// different traces, breaking the DESIGN §9 bit-identical-replay contract
// in a way the chaos tests only catch if the map happens to hold more
// than one entry on an exercised path.
//
// Inside simulated packages the analyzer flags a `for ... := range m`
// over a map when the body
//
//   - calls an order-sensitive routine — a method or function whose name
//     is one of the scheduling / queueing / tracing verbs (At, After, Do,
//     Spawn, Send, Wake, Take, Push, Pop, Enqueue, Raise, Burst, BurstAt,
//     Observe, Add, CompleteSend, CompleteRecv, Complete, Schedule), or
//
//   - appends to a slice declared outside the loop, unless the enclosing
//     function visibly sorts that slice after the loop (a call whose name
//     contains "sort"/"Sort" taking the slice as an argument) — the
//     canonical collect-keys-then-sort idiom stays legal.
//
// The fix is always the same: collect the keys, sort them, iterate the
// sorted keys. Genuinely commutative loops that trip the name heuristic
// can carry "//lint:qpip-allow maporder <reason>".
package maporder

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis/framework"
	"repro/internal/analysis/interproc"
	"repro/internal/analysis/load"
)

// Analyzer is the maporder check.
var Analyzer = &interproc.Analyzer{
	Name: "maporder",
	Doc:  "flag nondeterministic range-over-map loops with order-sensitive bodies in simulated packages",
	Run:  run,
}

// orderSensitiveCallees are routine names whose invocation inside a map
// range makes iteration order observable: event scheduling, process
// wakeups (sim.Waiter's Wake, and Take, which hands a parked process to
// its waker), queue pushes, and trace-counter bumps.
var orderSensitiveCallees = map[string]bool{
	"At": true, "After": true, "Do": true, "DoCycles": true, "Spawn": true,
	"Send": true, "Wake": true, "Take": true, "Push": true, "Pop": true, "Enqueue": true,
	"Raise": true, "Burst": true, "BurstAt": true, "Observe": true,
	"Add": true, "AddAll": true, "Complete": true, "CompleteSend": true,
	"CompleteRecv": true, "Schedule": true,
}

func run(pass *interproc.Pass) error {
	for _, u := range pass.Prog.Units {
		if !framework.SimulatedPackage(u.Path) {
			continue
		}
		for _, f := range u.Files {
			// Walk function by function so the sorted-after-loop escape can
			// see the whole enclosing body.
			ast.Inspect(f, func(n ast.Node) bool {
				var body *ast.BlockStmt
				switch n := n.(type) {
				case *ast.FuncDecl:
					body = n.Body
				case *ast.FuncLit:
					body = n.Body
				}
				if body != nil {
					checkBody(pass, u, body)
				}
				return true
			})
		}
	}
	return nil
}

func checkBody(pass *interproc.Pass, u *load.Package, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := u.Info.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		if name, node, bad := orderSensitiveEffect(u.Info, body, rng); bad {
			pass.Reportf(node.Pos(),
				"range over map in simulated package %s %s in its body: iteration order is random per run — collect the keys, sort them, and iterate the sorted slice",
				u.Path, name)
		}
		return true
	})
}

// orderSensitiveEffect scans one map-range body for order-sensitive
// effects, returning a description and position of the first one found.
func orderSensitiveEffect(info *types.Info, fnBody *ast.BlockStmt, rng *ast.RangeStmt) (string, ast.Node, bool) {
	var desc string
	var at ast.Node
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if at != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if name, ok := calleeIdent(n); ok && orderSensitiveCallees[name] {
				desc, at = "calls order-sensitive "+name, n
				return false
			}
		case *ast.AssignStmt:
			// x = append(x, ...) with x declared outside the loop.
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinAppend(info, call) || len(call.Args) == 0 {
					continue
				}
				dst, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
				if !ok || i >= len(n.Lhs) {
					continue
				}
				obj := info.Uses[dst]
				if obj == nil {
					continue
				}
				// Declared inside the loop body: purely loop-local, ordered
				// consumption is impossible after the loop ends.
				if rng.Body.Pos() <= obj.Pos() && obj.Pos() <= rng.Body.End() {
					continue
				}
				if sortedAfterLoop(info, fnBody, rng, obj) {
					continue
				}
				desc, at = "appends to "+dst.Name+" (declared outside the loop, never sorted)", n
				return false
			}
		}
		return true
	})
	return desc, orDefault(at, rng), at != nil
}

func orDefault(n ast.Node, d ast.Node) ast.Node {
	if n != nil {
		return n
	}
	return d
}

// sortedAfterLoop reports whether, somewhere after the range loop in the
// enclosing function body, a sorting routine is applied to obj — e.g.
// sort.Strings(keys), sort.Slice(keys, ...), slices.Sort(keys), or a
// local helper like sortInt64s(keys).
func sortedAfterLoop(info *types.Info, fnBody *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		if !sortishCallee(call) {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && info.Uses[id] == obj {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// sortishCallee reports whether the call looks like a sorting routine:
// any component of the callee name contains "sort" — sort.Strings(...),
// slices.Sort(...), sortInt64s(...), x.SortKeys(...).
func sortishCallee(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return strings.Contains(strings.ToLower(fun.Name), "sort")
	case *ast.SelectorExpr:
		if strings.Contains(strings.ToLower(fun.Sel.Name), "sort") {
			return true
		}
		if x, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			return strings.Contains(strings.ToLower(x.Name), "sort")
		}
	}
	return false
}

// calleeIdent extracts the final name of a call's callee: Foo(...) -> Foo,
// x.Bar(...) -> Bar. It reports false for indirect calls through
// non-selector expressions.
func calleeIdent(call *ast.CallExpr) (string, bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name, true
	case *ast.SelectorExpr:
		return fun.Sel.Name, true
	}
	return "", false
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// Package simclock forbids wall-clock reads and real sleeps in simulated
// packages.
//
// The paper's firmware is four serial FSMs driven entirely by simulated
// time; the reproduction's bit-identical-replay contract (DESIGN §8–§9)
// holds only if no simulated component ever observes the host clock. One
// stray time.Now in a retransmit computation silently re-couples the model
// to wall time, and the chaos-trace equivalence tests only catch it on
// the paths they happen to exercise. This analyzer proves the property
// over the whole tree: inside simulated packages (framework.
// SimulatedPackage), virtual time must flow through sim.Engine / sim.Proc.
//
// Flagged: calls to time.Now, time.Sleep, time.After, time.Tick,
// time.NewTimer, time.NewTicker, time.AfterFunc, time.Since, time.Until,
// and any import of math/rand or math/rand/v2 (simulated randomness must
// come from a seeded, replayable PRNG such as internal/fault's). Pure
// time *types* (time.Duration arithmetic, the unit constants) are fine —
// they read no clock.
//
// Harness packages (internal/bench, cmd/, scripts/, examples/) are exempt,
// as are _test.go files. Individual sites are suppressed with
// "//lint:qpip-allow simclock <reason>".
package simclock

import (
	"go/ast"

	"repro/internal/analysis/framework"
	"repro/internal/analysis/interproc"
)

// Analyzer is the simclock check.
var Analyzer = &interproc.Analyzer{
	Name: "simclock",
	Doc:  "forbid wall-clock reads (time.Now, time.Sleep, ...) and math/rand in simulated packages",
	Run:  run,
}

// wallClockFuncs are the time-package functions that read or wait on the
// host clock. Conversions and constructors that touch no clock
// (time.Duration, time.Unix) stay legal.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"AfterFunc": true,
	"Since":     true,
	"Until":     true,
}

func run(pass *interproc.Pass) error {
	for _, u := range pass.Prog.Units {
		if !framework.SimulatedPackage(u.Path) {
			continue
		}
		for _, f := range u.Files {
			for _, imp := range f.Imports {
				switch path := imp.Path.Value; path {
				case `"math/rand"`, `"math/rand/v2"`:
					pass.Reportf(imp.Pos(),
						"import of %s in simulated package %s: use a seeded deterministic PRNG (see internal/fault) so runs replay bit-identically",
						path, u.Path)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := framework.CalleeName(u.Info, call)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
					return true
				}
				if wallClockFuncs[fn.Name()] {
					pass.Reportf(call.Pos(),
						"time.%s in simulated package %s: simulated code must take time from sim.Engine (Now/At/After), never the wall clock",
						fn.Name(), u.Path)
				}
				return true
			})
		}
	}
	return nil
}

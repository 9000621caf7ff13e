// Package hotprop enforces the //qpip:hotpath allocation discipline
// through the call graph. A function whose doc comment contains the line
//
//	//qpip:hotpath
//
// is a hot root; a hot loop that calls an innocent-looking helper in
// another package still pays for every allocation that helper makes.
// hotprop walks the whole-program call graph (internal/analysis/interproc)
// from every annotated root — following static calls and conservatively
// resolved interface dispatches — and applies the hotalloc pattern
// library to each root and to every function it reaches, once each.
//
// A finding in a root names the annotation; a finding in a reached
// function carries the shortest call chain from an annotated root, so a
// finding deep in the fabric reads as evidence, not assertion. Without
// the allow on the frame.bindFns() call in fabric.(*Fabric).Send, the
// first report would be:
//
//	fabric.go:66: closure in hot-reachable function bindFns allocates
//	its environment per call: ... (hot call chain: gige.(*Device).txDone
//	-> fabric.(*Fabric).Send -> fabric.(*Frame).bindFns)
//
// Suppression is per-EDGE, not just per-finding: a
// "//lint:qpip-allow hotprop <reason>" comment on a call site severs
// that propagation edge, declaring the call cold by construction (an
// error path, a one-time setup hook reached through an interface). The
// callee then stops being hot-reachable through that edge — findings in
// an entire cold subtree disappear with one annotated call site instead
// of one allow per allocation. An allow on the flagged allocation line
// still works too, as everywhere else.
package hotprop

import (
	"go/token"

	"repro/internal/analysis/hotalloc"
	"repro/internal/analysis/interproc"
)

// Annotation marks a hot root; it must appear as its own line inside the
// function's doc comment.
const Annotation = "qpip:hotpath"

const name = "hotprop"

// Analyzer is the whole-program hot-path allocation check.
var Analyzer = &interproc.Analyzer{
	Name: name,
	Doc:  "flag allocating constructs (closures, fmt, boxing, string concat, growing append) in //qpip:hotpath functions and every callee they reach, with the hot call chain in each diagnostic",
	Run:  run,
}

func run(pass *interproc.Pass) error {
	prog := pass.Prog
	g := prog.Graph

	var roots []*interproc.Node
	for _, n := range g.All() {
		if n.Annotations[Annotation] {
			roots = append(roots, n)
		}
	}
	if len(roots) == 0 {
		return nil
	}

	// An allow on the call-site line severs the propagation edge.
	follow := func(e *interproc.Edge) bool {
		return !prog.Allows.Allows(name, prog.Fset.Position(e.Pos))
	}
	parent := g.ReachableFrom(roots, follow)

	for _, n := range g.All() {
		switch {
		case n.Annotations[Annotation]:
			hotalloc.Check(n.Unit.Info, n.Decl, "//"+Annotation+" function", pass.Reportf)
		case parent[n] != nil:
			chain := interproc.Chain(parent, n)
			hotalloc.Check(n.Unit.Info, n.Decl, "hot-reachable function", func(pos token.Pos, format string, args ...any) {
				pass.Reportf(pos, format+" (hot call chain: %s)", append(args, chain)...)
			})
		}
	}
	return nil
}

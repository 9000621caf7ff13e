// Package interproc is qpiplint's analysis layer: the one Analyzer type,
// its runner, a cross-package call-graph builder and a small
// summary-based dataflow framework, built on the standard library's
// go/ast + go/types only (like the rest of internal/analysis — the build
// image carries no x/tools).
//
// # One program, every analyzer
//
// Every analyzer sees the whole loaded program. The syntactic checks
// (no wall clocks, no goroutines, no order-sensitive map ranges) simply
// loop over Program.Units; the checks that span functions and packages
// use the call graph: a callee reached from a //qpip:hotpath root that
// allocates, a pooled fabric.Frame acquired in one package and never
// released in another, shard-runner code touching a foreign engine
// outside the mailbox protocol.
//
// # The universe problem
//
// The loader type-checks each target package from source but resolves its
// imports from compiled export data, so one real package exists as two
// distinct go/types object universes: its own source-checked form, and
// the export-data form its dependents see. Object identity therefore
// cannot link a call site in package A to the function declaration in
// package B. The call graph instead keys every function by its
// universe-independent full name ((*repro/internal/fabric.Fabric).Send)
// and matches interface satisfaction structurally, by method name plus a
// rendered signature string with package-path qualifiers — see
// callgraph.go.
//
// # Summaries
//
// Dataflow analyzers attach one summary per graph node and iterate
// Graph.Fixpoint until no summary changes (monotone summaries only: a
// summary field may flip false->true, never back, so termination is the
// finite flag count). The summary format is the analyzer's own struct;
// bufown's is documented in DESIGN §17 as the reference instance.
package interproc

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"

	"repro/internal/analysis/framework"
	"repro/internal/analysis/load"
)

// Program is the whole-program view: every loaded package, the repo-wide
// suppression set, and the call graph over all of it.
type Program struct {
	Fset   *token.FileSet
	Units  []*load.Package
	Allows *framework.AllowSet
	Graph  *Graph
}

// NewProgram assembles a Program: collects //lint:qpip-allow suppressions
// across every file and builds the call graph. The units must share fset.
func NewProgram(fset *token.FileSet, units []*load.Package) *Program {
	var files []*ast.File
	for _, u := range units {
		files = append(files, u.Files...)
	}
	p := &Program{Fset: fset, Units: units, Allows: framework.CollectAllows(fset, files)}
	p.Graph = buildGraph(p)
	return p
}

// Analyzer is one named check over the whole program.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:qpip-allow suppression comments.
	Name string
	// Doc is the one-paragraph description shown by qpiplint -help.
	Doc string
	// Run inspects the program and reports findings through pass.Reportf.
	// A non-nil error aborts the whole lint run (reserved for internal
	// failures, not findings).
	Run func(pass *Pass) error
}

// Pass carries the program to one analyzer run.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program

	findings []Finding
}

// Reportf records a finding unless a //lint:qpip-allow for this analyzer
// covers its line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	at := p.Prog.Fset.Position(pos)
	if p.Prog.Allows.Allows(p.Analyzer.Name, at) {
		return
	}
	p.findings = append(p.findings, Finding{Analyzer: p.Analyzer.Name, Pos: at, Message: fmt.Sprintf(format, args...)})
}

// Finding is one unsuppressed diagnostic, ready to print.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Analyzer)
}

// staleAllow labels the findings Run reports against allows themselves.
const staleAllow = "allow"

// Run applies analyzers to prog and returns the findings that survive
// //lint:qpip-allow suppression, sorted by position. all is the full
// analyzer registry: an allow naming none of its analyzers is reported,
// and so is an allow for one of the analyzers run here that suppressed
// no finding and severed no hotprop edge.
func Run(prog *Program, analyzers, all []*Analyzer) ([]Finding, error) {
	var out []Finding
	ran := map[string]bool{}
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Prog: prog}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		out = append(out, pass.findings...)
		ran[a.Name] = true
	}
	known := map[string]bool{}
	for _, a := range all {
		known[a.Name] = true
	}
	for _, al := range prog.Allows.All() {
		switch {
		case !known[al.Analyzer]:
			out = append(out, Finding{Analyzer: staleAllow, Pos: al.Pos,
				Message: fmt.Sprintf("//%s names no analyzer %q", framework.AllowPrefix, al.Analyzer)})
		case ran[al.Analyzer] && !al.Used:
			out = append(out, Finding{Analyzer: staleAllow, Pos: al.Pos,
				Message: fmt.Sprintf("//%s %s suppresses no finding: delete it", framework.AllowPrefix, al.Analyzer)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

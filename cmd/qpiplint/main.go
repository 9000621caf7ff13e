// Command qpiplint is the repo's domain multichecker: the static
// analyzers that prove the simulator's determinism and datapath
// invariants over the whole tree on every `make lint` and in tier-1
// (DESIGN §12, §17). Every analyzer sees the whole program: the loaded
// packages plus the cross-package call graph.
//
//	simclock     no wall-clock reads in simulated packages
//	nogoroutine  no raw goroutines or sync primitives in simulated packages
//	maporder     no order-sensitive range-over-map loops
//	hotprop      //qpip:hotpath functions and every callee they reach
//	             stay allocation-free; diagnostics in callees carry the
//	             hot call chain from the annotated root
//	bufown       pooled buffer ownership balances within and across
//	             functions via per-function consume/own summaries, and
//	             nothing is used after its straight-line Release
//	shardsafe    //qpip:barrier confinement, shard-runner call
//	             discipline, no scheduling on foreign engines
//
// Usage:
//
//	qpiplint [-run name,name] [packages...]   # default ./...
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure. Findings
// are suppressed line-by-line with
//
//	//lint:qpip-allow <analyzer> <reason>
//
// on the flagged line or the line above it; the reason is mandatory, and
// for hotprop an allow on a call site severs that propagation edge. An
// allow that names no analyzer is a finding, and so is an allow for a
// selected analyzer that suppressed nothing — in a full run, every stale
// allow.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis/bufown"
	"repro/internal/analysis/hotprop"
	"repro/internal/analysis/interproc"
	"repro/internal/analysis/load"
	"repro/internal/analysis/maporder"
	"repro/internal/analysis/nogoroutine"
	"repro/internal/analysis/shardsafe"
	"repro/internal/analysis/simclock"
)

var all = []*interproc.Analyzer{
	simclock.Analyzer,
	nogoroutine.Analyzer,
	maporder.Analyzer,
	hotprop.Analyzer,
	bufown.Analyzer,
	shardsafe.Analyzer,
}

func main() {
	run := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: qpiplint [-run name,name] [packages...]\n\nanalyzers:\n")
		for _, a := range all {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	analyzers, err := selectAnalyzers(*run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qpiplint:", err)
		os.Exit(2)
	}
	findings, err := lint(analyzers, flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qpiplint:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// lint loads patterns as one program and runs analyzers over it.
func lint(analyzers []*interproc.Analyzer, patterns ...string) ([]interproc.Finding, error) {
	pkgs, err := load.Load(patterns...)
	if err != nil || len(pkgs) == 0 {
		return nil, err
	}
	// The loader shares one FileSet across packages.
	return interproc.Run(interproc.NewProgram(pkgs[0].Fset, pkgs), analyzers, all)
}

func selectAnalyzers(names string) ([]*interproc.Analyzer, error) {
	if names == "" {
		return all, nil
	}
	by := map[string]*interproc.Analyzer{}
	for _, a := range all {
		by[a.Name] = a
	}
	var out []*interproc.Analyzer
	for _, n := range strings.Split(names, ",") {
		a := by[strings.TrimSpace(n)]
		if a == nil {
			return nil, fmt.Errorf("unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

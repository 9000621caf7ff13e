// Command qpipbench regenerates the paper's tables and figures from the
// simulated testbed.
//
// Usage:
//
//	qpipbench [-exp all|fig3|fig4|table1|table2|table3|fig7|chaos|recovery|ablations|irq|perfscale|scaleguard|collective|collguard|connscale|connguard]
//	          [-bytes N] [-nbd-bytes N] [-iters N] [-full]
//	          [-parallel N] [-shards N] [-pairs N]
//	          [-coll-nodes LIST] [-coll-iters N] [-vec-words N]
//	          [-conn-counts LIST] [-conn-msgs N]
//	          [-cpuprofile FILE] [-memprofile FILE]
//	          [-json FILE] [-perf-repeats N]
//
// -full runs the paper's exact workload sizes (10 MB ttcp, 409 MB NBD);
// the default sizes are reduced for quick runs.
//
// -parallel N runs independent sweep points (each with its own engine and
// cluster) across up to N goroutines; 0 means GOMAXPROCS. Reports are
// byte-identical to a sequential run. -exp irq sweeps the CQ
// interrupt-coalescing delay (latency vs host CPU).
//
// -exp perfscale measures the conservative parallel simulation core
// (internal/sim/par): a many-pair workload run sequentially and sharded up
// to -shards engines, in both isolated and cross-shard placements; with
// -json it writes the machine-readable report (BENCH_PR7.json). -exp
// scaleguard is the CI gate form: it checks sharded runs fire the exact
// sequential event count and meet the wall-clock bound the host's core
// count can express, exiting nonzero on failure.
//
// -exp collective sweeps collective operations (barrier, ring allreduce)
// over switched topologies (-coll-nodes group sizes on ring, mesh and
// fat-tree fabrics), comparing the host-based reference over plain QPs
// against the NIC-offloaded engine; with -json it writes the
// machine-readable report (BENCH_PR8.json). -exp collguard is the CI
// gate: at 8 nodes the offloaded barrier must beat the host-based one in
// simulated latency and host CPU on every topology, else exit nonzero.
//
// -exp connscale sweeps connection density (-conn-counts, default
// 64..8192) across three workloads (N->1 incast, RPC connection churn,
// many-client NBD) and four variants (QPIP with shared receive queues,
// QPIP with private per-QP receive queues, and the two host stacks),
// reporting per-connection memory and host CPU per request; with -json
// it writes the machine-readable report (BENCH_PR9.json). -exp connguard
// is the CI gate: the SRQ variant must at least halve per-connection
// memory at 1024 connections without regressing CPU per request at 64,
// and churn must leave no residual connection state.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all, fig3, fig4, table1, table2, table3, fig7, chaos, recovery, ablations, irq, perfscale, scaleguard, collective, collguard, connscale, connguard")
	bytes := flag.Int("bytes", 4<<20, "ttcp transfer size in bytes")
	nbdBytes := flag.Int("nbd-bytes", 64<<20, "NBD benchmark size in bytes")
	iters := flag.Int("iters", 50, "ping-pong iterations for latency experiments")
	full := flag.Bool("full", false, "use the paper's workload sizes (10 MB ttcp, 409 MB NBD)")
	parallel := flag.Int("parallel", 1, "concurrent sweep points (0 = GOMAXPROCS)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	jsonPath := flag.String("json", "", "write the report of -exp recovery, perfscale, collective or connscale as JSON to this file")
	perfRepeats := flag.Int("perf-repeats", 3, "repetitions per configuration in -exp perfscale (best-of)")
	shards := flag.Int("shards", 4, "max shard engines in -exp perfscale/scaleguard")
	pairs := flag.Int("pairs", 4, "communicating node pairs in -exp perfscale/scaleguard")
	collNodes := flag.String("coll-nodes", "2,8,32,128", "comma-separated group sizes for -exp collective")
	collIters := flag.Int("coll-iters", 4, "timed operations per point in -exp collective/collguard")
	vecWords := flag.Int("vec-words", 64, "allreduce vector length in 64-bit words for -exp collective")
	connCounts := flag.String("conn-counts", "64,512,2048,8192", "comma-separated connection counts for -exp connscale")
	connMsgs := flag.Int("conn-msgs", 4, "requests per connection for -exp connscale/connguard")
	flag.Parse()

	if *full {
		*bytes = 10 << 20
		*nbdBytes = 409 << 20
	}
	bench.SetParallelism(*parallel)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	run := func(name string, fn func()) {
		if *exp == "all" || *exp == name {
			fn()
			fmt.Println()
		}
	}

	ran := false
	mark := func(fn func()) func() {
		return func() { ran = true; fn() }
	}

	run("fig3", mark(func() { fmt.Print(bench.RenderFigure3(bench.Figure3(*iters))) }))
	run("fig4", mark(func() { fmt.Print(bench.RenderFigure4(bench.Figure4(*bytes))) }))
	run("table1", mark(func() { fmt.Print(bench.RenderTable1(bench.Table1(*iters))) }))
	run("table2", mark(func() { fmt.Print(bench.RenderTable2(bench.Table2(*iters))) }))
	run("table3", mark(func() { fmt.Print(bench.RenderTable3(bench.Table3(*iters))) }))
	run("fig7", mark(func() { fmt.Print(bench.RenderFigure7(bench.Figure7(*nbdBytes))) }))
	run("chaos", mark(func() { fmt.Print(bench.RenderChaos(bench.Chaos(*bytes))) }))
	run("recovery", mark(func() {
		rows := bench.Recovery(*bytes)
		fmt.Print(bench.RenderRecovery(rows))
		js, err := bench.RecoveryJSON(rows)
		if err != nil {
			fmt.Fprintf(os.Stderr, "recovery json: %v\n", err)
			os.Exit(1)
		}
		if *jsonPath != "" && *exp == "recovery" {
			if err := os.WriteFile(*jsonPath, []byte(js), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "write %s: %v\n", *jsonPath, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *jsonPath)
		} else {
			fmt.Print(js)
		}
		for _, r := range rows {
			if !r.Verified || r.Failed {
				fmt.Fprintf(os.Stderr, "recovery: %s/%s point not byte-exact\n", r.Scenario, r.Backoff)
				os.Exit(1)
			}
		}
	}))
	run("irq", mark(func() { fmt.Print(bench.RenderIRQ(bench.IRQAblation(*bytes, *iters))) }))
	run("ablations", mark(func() {
		fmt.Print(bench.RenderAblation(bench.AblationChecksum(*bytes)))
		fmt.Println()
		fmt.Print(bench.RenderAblation(bench.AblationPipelinedTX(*bytes)))
		fmt.Println()
		fmt.Print(bench.RenderAblation(bench.AblationDelAck(*bytes)))
		fmt.Println()
		fmt.Print(bench.RenderMTUSweep(bench.AblationMTU(*bytes)))
	}))
	// perfscale is excluded from -exp all: its sharded clusters spawn
	// worker threads, which must not overlap -parallel sweeps.
	if *exp == "perfscale" {
		ran = true
		rep := bench.Perfscale(*pairs, *shards, *bytes, *perfRepeats)
		fmt.Print(bench.RenderPerfscale(rep))
		if *jsonPath != "" {
			if err := bench.WriteScaleJSON(*jsonPath, rep); err != nil {
				fmt.Fprintf(os.Stderr, "write %s: %v\n", *jsonPath, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *jsonPath)
		}
	}

	// scaleguard is CI-only: never part of -exp all, exits 1 on regression.
	if *exp == "scaleguard" {
		ran = true
		report, ok := bench.PerfscaleGuard(*pairs, *shards, *bytes)
		fmt.Print(report)
		if !ok {
			os.Exit(1)
		}
	}

	// collective sweeps large clusters (up to 128 nodes per point); like
	// perfscale it is excluded from -exp all.
	if *exp == "collective" {
		ran = true
		nodes, err := parseNodeList(*collNodes)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-coll-nodes: %v\n", err)
			os.Exit(2)
		}
		rep := bench.Collective(nodes, *collIters, *vecWords)
		fmt.Print(bench.RenderCollective(rep))
		if *jsonPath != "" {
			if err := bench.WriteCollJSON(*jsonPath, rep); err != nil {
				fmt.Fprintf(os.Stderr, "write %s: %v\n", *jsonPath, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *jsonPath)
		}
	}
	if *exp == "collguard" {
		ran = true
		report, ok := bench.CollectiveGuard(*collIters)
		fmt.Print(report)
		if !ok {
			os.Exit(1)
		}
	}

	// connscale sweeps up to 8192 connections per point; like perfscale it
	// is excluded from -exp all.
	if *exp == "connscale" {
		ran = true
		counts, err := parseNodeList(*connCounts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-conn-counts: %v\n", err)
			os.Exit(2)
		}
		rep := bench.Connscale(counts, *connMsgs)
		fmt.Print(bench.RenderConnscale(rep))
		if *jsonPath != "" {
			if err := bench.WriteConnJSON(*jsonPath, rep); err != nil {
				fmt.Fprintf(os.Stderr, "write %s: %v\n", *jsonPath, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *jsonPath)
		}
	}
	if *exp == "connguard" {
		ran = true
		report, ok := bench.ConnGuard(*connMsgs)
		fmt.Print(report)
		if !ok {
			os.Exit(1)
		}
	}

	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
}

// parseNodeList parses a comma-separated list of positive group sizes.
func parseNodeList(s string) ([]int, error) {
	var nodes []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad group size %q", part)
		}
		nodes = append(nodes, n)
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return nodes, nil
}

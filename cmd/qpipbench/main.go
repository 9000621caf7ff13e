// Command qpipbench regenerates the paper's tables and figures from the
// simulated testbed.
//
// Usage:
//
//	qpipbench [-exp all|NAME] [-bytes N] [-nbd-bytes N] [-iters N] [-full]
//	          [-parallel N] [-coll-nodes LIST] [-coll-iters N] [-vec-words N]
//	          [-conn-counts LIST] [-conn-msgs N]
//	          [-cpuprofile FILE] [-memprofile FILE]
//
// The experiments are the table in internal/bench (qpipbench -h lists
// them); -exp all runs every one except the large collective and
// connscale sweeps. -full runs the paper's exact workload sizes (10 MB
// ttcp, 409 MB NBD); the default sizes are reduced for quick runs.
//
// -parallel N runs independent sweep points (each with its own engine and
// cluster) across up to N goroutines; 0 means GOMAXPROCS. Reports are
// byte-identical to a sequential run, and contain no host-time number:
// the golden files under internal/bench/testdata/golden pin them.
//
// -exp recovery exits nonzero if any point does not read back byte-exact.
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
	names := []string{"all"}
	for _, e := range bench.Experiments {
		names = append(names, e.Name)
	}
	exp := flag.String("exp", "all", "experiment: "+strings.Join(names, ", "))
	bytes := flag.Int("bytes", 4<<20, "ttcp transfer size in bytes")
	nbdBytes := flag.Int("nbd-bytes", 64<<20, "NBD benchmark size in bytes")
	iters := flag.Int("iters", 50, "ping-pong iterations for latency experiments")
	full := flag.Bool("full", false, "use the paper's workload sizes (10 MB ttcp, 409 MB NBD)")
	parallel := flag.Int("parallel", 1, "concurrent sweep points (0 = GOMAXPROCS)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	collNodes := flag.String("coll-nodes", "2,8,32,128", "comma-separated group sizes for -exp collective")
	collIters := flag.Int("coll-iters", 4, "timed operations per point in -exp collective")
	vecWords := flag.Int("vec-words", 64, "allreduce vector length in 64-bit words for -exp collective")
	connCounts := flag.String("conn-counts", "64,512,2048,8192", "comma-separated connection counts for -exp connscale")
	connMsgs := flag.Int("conn-msgs", 4, "requests per connection for -exp connscale")
	flag.Parse()

	if *full {
		*bytes = 10 << 20
		*nbdBytes = 409 << 20
	}
	bench.SetParallelism(*parallel)
	opts := bench.Options{
		Bytes: *bytes, NBDBytes: *nbdBytes, Iters: *iters,
		CollNodes: parseList("-coll-nodes", *collNodes), CollIters: *collIters, VecWords: *vecWords,
		ConnCounts: parseList("-conn-counts", *connCounts), ConnMsgs: *connMsgs,
	}

	var run []bench.Experiment
	for _, e := range bench.Experiments {
		if e.Name == *exp || (*exp == "all" && e.InAll) {
			run = append(run, e)
		}
	}
	if len(run) == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}

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

	for _, e := range run {
		if err := e.Run(os.Stdout, opts); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

// parseList parses a comma-separated list of positive integers, exiting
// with a usage error on a malformed one.
func parseList(flagName, s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "%s: bad value %q\n", flagName, part)
			os.Exit(2)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		fmt.Fprintf(os.Stderr, "%s: empty list\n", flagName)
		os.Exit(2)
	}
	return out
}

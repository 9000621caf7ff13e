// Command benchmark is the repository's performance benchmark: six
// workloads over the simulator, each measured end to end with tracing off
// and, in a separate traced run, layer by layer. BENCHMARK.json at the
// repository root names the workloads and metrics; README.md explains them.
//
//	bash benchmark/run.sh --workload stream --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh --seed 1            # every workload, both modes
//	bash benchmark/run.sh -compare OLD.json NEW.json
//	bash benchmark/run.sh -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"time"
)

// processStart is taken as early as the program can: set-up time of a
// child is measured from here.
var processStart = time.Now()

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen; 0 for per-layer metrics, which have none.
	bound        float64
	higherBetter bool
	// exact marks a result of the simulated design or a count made by the
	// program: it repeats exactly for one seed, so two runs compare exactly.
	exact bool
}

// endToEnd are the metrics measured with tracing off. Host-time metrics
// describe the simulator (its product is sweep throughput); the modelled
// design's simulated results are exact and live with the per-layer counts.
//
// The bounds are wide because the reference host is: a shared 2-vCPU
// virtual machine on which a fixed spin loop's CPU time varies by 40 %
// between half-seconds. README.md records the spreads measured at this
// commit next to each bound.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "wall_s", unit: "s", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", bound: 0.25, higherBetter: true},
	{name: "cpu_s", unit: "s", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", bound: 0.20},
}

const (
	// minRegions is the fewest timed regions a run's estimates rest on.
	minRegions = 4
	// runDeadline stops a run from starting further children.
	runDeadline = 150 * time.Second
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the last line a single-workload run prints.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: every workload, both trace modes)")
		seed         = flag.Uint64("seed", 1, "seed every workload input is derived from")
		seconds      = flag.Float64("seconds", 10, "host seconds of timed regions per run")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from traced runs and probes")
		scale        = flag.Float64("scale", 1, "workload size multiplier (tests use 0.01)")
		out          = flag.String("out", "benchmark/out/results.json", "results file of a whole-set run")
		compare      = flag.Bool("compare", false, "compare two results files: -compare OLD.json NEW.json")
		selfcheck    = flag.Bool("selfcheck", false, "run the whole set twice and compare the two")
		child        = flag.Bool("child", false, "internal: run one set-up and timed region, print its result")
		childTraced  = flag.Bool("child-traced", false, "internal: profile the child's timed region and keep its spans")
	)
	flag.Parse()
	w := findWorkload(*workloadName)
	if w == nil && (*workloadName != "" || *child) {
		fatalf("unknown workload %q", *workloadName)
	}
	switch {
	case *child:
		res := runChild(w, *seed, *scale, *childTraced, processStart)
		must(json.NewEncoder(os.Stdout).Encode(res))
	case *compare:
		if flag.NArg() != 2 {
			fatalf("usage: -compare OLD.json NEW.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	case *selfcheck:
		os.Exit(selfCheck(*seed, *seconds, *scale, *out))
	case w == nil:
		set, ok := runSet(*seed, *seconds, *scale)
		must(writeJSON(*out, set))
		fmt.Printf("results written to %s\n", *out)
		if !ok {
			os.Exit(1)
		}
	default:
		r := runOne(w, *seed, *seconds, *scale, *trace != 0)
		printMetrics(w.name, r.result)
		line, err := json.Marshal(r.result)
		must(err)
		fmt.Println(string(line))
		if !r.result.Correct {
			os.Exit(1)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// oneRun is a single-workload run: the contract's result plus each
// end-to-end metric's spread over the run's timed regions.
type oneRun struct {
	result runResult
	spread map[string][2]float64 // metric -> min, max
}

// runOne measures one workload. Untraced, it repeats the timed region in a
// fresh child process per repetition (so peak RSS, CPU time, GC state and
// pools are per-region) until seconds of timed regions have been measured,
// and reports the estimators' values. Traced, it reports the per-layer
// metrics.
func runOne(w *workload, seed uint64, seconds, scale float64, traced bool) oneRun {
	if traced {
		return runTraced(w, seed, seconds, scale)
	}
	start := time.Now()
	var kids []childResult
	timed := 0.0
	for (timed < seconds || len(kids) < minRegions) && time.Since(start) < runDeadline {
		k, err := spawnChild(w, seed, scale, false)
		if err != nil {
			return failedRun(w, scale, err)
		}
		kids = append(kids, k)
		timed += k.WallS
	}
	r := oneRun{result: tally(kids), spread: map[string][2]float64{}}
	// Interleaved halves of the repetitions give each estimate a spread.
	var halves [2][]childResult
	for i, k := range kids {
		halves[i%2] = append(halves[i%2], k)
	}
	for _, m := range endToEnd {
		est := estimators[m.name]
		r.result.Metrics[m.name] = metricValue{est(kids), m.unit}
		a, b := est(halves[0]), est(halves[1])
		r.spread[m.name] = [2]float64{min(a, b), max(a, b)}
	}
	return r
}

// estimators turn the repetitions of one run into each end-to-end metric.
// The host is a shared virtual machine whose interference only ever adds
// time, in bursts of milliseconds to seconds, so host-time metrics take the
// lower quartile over repetitions rather than the middle: it is the steadier
// estimate of what the program itself costs.
var estimators = map[string]func(kids []childResult) float64{
	"setup_s": func(kids []childResult) float64 {
		return lowQuartile(column(kids, func(k childResult) float64 { return k.SetupS }))
	},
	"wall_s": compositeWall,
	"ops_per_s": func(kids []childResult) float64 {
		return float64(kids[0].Ops-kids[0].Failed) / compositeWall(kids)
	},
	"cpu_s": func(kids []childResult) float64 {
		return lowQuartile(column(kids, func(k childResult) float64 { return k.CPUS }))
	},
	"peak_rss_mb": func(kids []childResult) float64 {
		return median(column(kids, func(k childResult) float64 { return k.PeakRSSMB }))
	},
}

func column(kids []childResult, f func(childResult) float64) []float64 {
	out := make([]float64, len(kids))
	for i, k := range kids {
		out[i] = f(k)
	}
	return out
}

// compositeSlices sets the repetitions' timed regions against each other
// slice by slice: every repetition fires the same events in slice i, so the
// lower quartile of slice i's host time over repetitions is what that
// stretch of simulation costs when the host leaves it alone.
func compositeSlices(kids []childResult) []float64 {
	n := len(kids[0].SliceNS)
	for _, k := range kids {
		n = min(n, len(k.SliceNS)) // unequal only if determinism broke; tally reports that
	}
	out := make([]float64, n)
	col := make([]float64, len(kids))
	for i := range out {
		for j, k := range kids {
			col[j] = float64(k.SliceNS[i])
		}
		out[i] = lowQuartile(col)
	}
	return out
}

// compositeWall is the timed region's host seconds: the sum of the
// composite slices.
func compositeWall(kids []childResult) float64 {
	total := 0.0
	for _, ns := range compositeSlices(kids) {
		total += ns
	}
	return total / 1e9
}

// tally sums operations over children and checks the determinism
// invariant: every repetition of one seed must simulate the same world.
func tally(kids []childResult) runResult {
	r := runResult{Correct: true, Metrics: map[string]metricValue{}}
	for _, k := range kids {
		r.Attempted += k.Ops
		r.Failed += k.Failed
		if k.Problem != "" {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", k.Workload, k.Problem)
		}
		f := kids[0]
		if k.SimElapsedNS != f.SimElapsedNS || k.Events != f.Events || k.LatP50NS != f.LatP50NS || k.LatHighNS != f.LatHighNS ||
			!slices.Equal(k.SliceEvents, f.SliceEvents) {
			fmt.Fprintf(os.Stderr, "benchmark: %s: repetitions of one seed differ: sim %d/%d ns, events %d/%d, p50 %d/%d, tail %d/%d\n",
				k.Workload, k.SimElapsedNS, f.SimElapsedNS, k.Events, f.Events, k.LatP50NS, f.LatP50NS, k.LatHighNS, f.LatHighNS)
			r.Correct = false
		}
	}
	if r.Failed > 0 {
		r.Correct = false
	}
	return r
}

// failedRun reports a run whose child crashed: everything it would have
// attempted failed.
func failedRun(w *workload, scale float64, err error) oneRun {
	fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
	n := w.ops(scale)
	return oneRun{result: runResult{Attempted: n, Failed: n, Metrics: map[string]metricValue{}}}
}

// spawnChild runs one set-up and timed region in a fresh process.
func spawnChild(w *workload, seed uint64, scale float64, traced bool) (childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return childResult{}, err
	}
	cmd := exec.Command(exe, "-child", "-workload", w.name,
		"-seed", strconv.FormatUint(seed, 10), "-scale", strconv.FormatFloat(scale, 'g', -1, 64),
		"-child-traced="+strconv.FormatBool(traced))
	// One processor per simulation engine, as in a saturated sweep of many
	// scenarios. With a spare processor every Proc hand-off also wakes an
	// idle thread (a futex call), which made single-engine regions a fifth
	// slower and doubled their spread on the reference host.
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(min(w.engines, runtime.NumCPU())))
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return childResult{}, fmt.Errorf("child process: %w", err)
	}
	var res childResult
	if err := json.Unmarshal(outBytes, &res); err != nil {
		return childResult{}, fmt.Errorf("child result: %w", err)
	}
	return res, nil
}

// traceFile is what a traced run leaves in benchmark/out/ for reading.
type traceFile struct {
	Workload string                 `json:"workload"`
	Seed     uint64                 `json:"seed"`
	Metrics  map[string]metricValue `json:"metrics"`
	// Runs holds each traced child's spans and shares.
	Runs []childResult `json:"runs"`
}

// runTraced produces the per-layer metrics: the probes, then pairs of an
// untraced and a traced child. Exact counts come from the untraced child;
// shares and slice timing from the traced ones; the gap between the two
// is the tracing overhead.
func runTraced(w *workload, seed uint64, seconds, scale float64) oneRun {
	vals := runProbes(time.Duration(seconds / 250 * scale * float64(time.Second)))
	pairs := int(seconds/5 + 0.5)
	if pairs < 1 {
		pairs = 1
	}
	var plain, traced []childResult
	for i := 0; i < pairs; i++ {
		k, err := spawnChild(w, seed, scale, false)
		if err != nil {
			return failedRun(w, scale, err)
		}
		plain = append(plain, k)
		t, err := spawnChild(w, seed, scale, true)
		if err != nil {
			return failedRun(w, scale, err)
		}
		traced = append(traced, t)
	}
	r := oneRun{result: tally(append(append([]childResult(nil), plain...), traced...))}

	samples := 0
	for _, n := range shareNames {
		vals["share."+n] = 0
	}
	for _, t := range traced {
		for n, s := range t.Shares {
			vals["share."+n] += s * float64(t.Samples)
		}
		samples += t.Samples
	}
	for _, n := range shareNames {
		if samples > 0 {
			vals["share."+n] /= float64(samples)
		}
	}
	// Host ns per event of each slice that fired any, fastest first.
	var perEvent []float64
	for i, ns := range compositeSlices(plain) {
		if ev := plain[0].SliceEvents[i]; ev > 0 {
			perEvent = append(perEvent, ns/float64(ev))
		}
	}
	sort.Float64s(perEvent)
	vals["run.ns_per_event_p50"] = perEvent[(len(perEvent)-1)/2]
	vals["run.ns_per_event_p99"] = perEvent[(len(perEvent)-1)*99/100]
	vals["run.slices"] = float64(len(plain[0].SliceNS))
	plainWall := compositeWall(plain)
	vals["trace.overhead_share"] = compositeWall(traced)/plainWall - 1

	k := plain[0]
	ops := float64(k.Ops)
	vals["sim.events_per_s"] = float64(k.Events) / plainWall
	vals["sim.events"] = float64(k.Events)
	vals["sim.events_per_op"] = float64(k.Events) / ops
	vals["allocs_per_op"] = float64(k.Mallocs) / ops
	vals["alloc_bytes_per_op"] = float64(k.AllocBytes) / ops
	vals["sim_elapsed_ms"] = float64(k.SimElapsedNS) / 1e6
	vals["sim_lat_us_p50"] = float64(k.LatP50NS) / 1e3
	vals["sim_lat_us_p99"] = float64(k.LatHighNS) / 1e3
	vals["sim_lat_high_pct"] = 100 * k.LatHighQ
	vals["sim_lat_samples"] = float64(k.LatSamples)
	for n, v := range k.Counts {
		vals[n] = v
	}
	for _, m := range perLayer {
		v, ok := vals[m.name]
		if !ok {
			panic("benchmark: per-layer metric not measured: " + m.name)
		}
		r.result.Metrics[m.name] = metricValue{v, m.unit}
	}
	tf := traceFile{Workload: w.name, Seed: seed, Metrics: r.result.Metrics, Runs: traced}
	if err := writeJSON(filepath.Join("benchmark", "out", w.name+".trace.json"), tf); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: trace file: %v\n", err)
	}
	return r
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printMetrics lists every metric by name with its unit.
func printMetrics(workload string, r runResult) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s: %d operations attempted, %d failed\n", workload, r.Attempted, r.Failed)
	for _, n := range names {
		fmt.Printf("  %-28s %16.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
}

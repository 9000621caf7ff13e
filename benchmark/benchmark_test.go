package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"
)

const smokeScale = 0.01

func smoke(t *testing.T, name string, seed uint64) childResult {
	t.Helper()
	w := findWorkload(name)
	if w == nil {
		t.Fatalf("no workload %q", name)
	}
	return runChild(w, seed, smokeScale, false, time.Now())
}

// Every workload completes at a hundredth of its size with every output
// verified and every end-to-end input finite.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		res := smoke(t, w.name, 1)
		if res.Problem != "" || res.Failed != 0 {
			t.Errorf("%s: %d of %d operations failed: %s", w.name, res.Failed, res.Ops, res.Problem)
		}
		if want := w.ops(smokeScale); res.Ops != want || res.LatSamples != want {
			t.Errorf("%s: %d operations, %d latency samples, want %d", w.name, res.Ops, res.LatSamples, want)
		}
		kids := []childResult{res, res, res, res}
		for _, m := range endToEnd {
			if v := estimators[m.name](kids); !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v, want a positive finite number", w.name, m.name, v)
			}
		}
		if res.SimElapsedNS <= 0 || res.Events == 0 || res.LatP50NS <= 0 || res.LatHighNS < res.LatP50NS {
			t.Errorf("%s: simulated results %d ns, %d events, p50 %d, tail %d", w.name, res.SimElapsedNS, res.Events, res.LatP50NS, res.LatHighNS)
		}
		// Slice length is extrapolated from the warm-up, which at this size
		// is a handful of operations in slow start: only the cap is exact.
		if len(res.SliceNS) < 2 || len(res.SliceNS) > 4*timedSlices+1 {
			t.Errorf("%s: timed region cut into %d slices, want 2 to %d", w.name, len(res.SliceNS), 4*timedSlices+1)
		}
	}
}

// exactPart is everything about a child that must repeat for one seed.
func exactPart(r childResult) any {
	counts := map[string]float64{}
	for k, v := range r.Counts {
		if len(k) < 3 || k[:3] != "rt." { // collector behaviour is the host's, not the model's
			counts[k] = v
		}
	}
	return []any{r.Ops, r.SimElapsedNS, r.LatP50NS, r.LatHighNS, r.Events, r.SliceEvents, counts}
}

func TestSameSeedSameWorld(t *testing.T) {
	for _, w := range workloads {
		a, b := smoke(t, w.name, 7), smoke(t, w.name, 7)
		if !reflect.DeepEqual(exactPart(a), exactPart(b)) {
			t.Errorf("%s: two runs of one seed differ:\n%v\n%v", w.name, exactPart(a), exactPart(b))
		}
	}
	// The seed reaches the inputs: payload bytes do not change simulated
	// time, so look at where it does (start staggers, vectors).
	for _, name := range []string{"stream_real", "incast"} {
		a, b := smoke(t, name, 7), smoke(t, name, 8)
		if a.SimElapsedNS == b.SimElapsedNS && a.LatP50NS == b.LatP50NS && a.LatHighNS == b.LatHighNS {
			t.Errorf("%s: seeds 7 and 8 simulate the same world", name)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{name: "wall_s", bound: 0.10}
	higher := metricDef{name: "ops_per_s", bound: 0.10, higherBetter: true}
	tight := func(v float64) summary { return summary{Median: v, Min: v * 0.99, Max: v * 1.01} }
	wide := func(v float64) summary { return summary{Median: v, Min: v * 0.9, Max: v * 1.1} }
	for _, c := range []struct {
		m        metricDef
		old, cur summary
		want     string
	}{
		{lower, tight(1), tight(1.05), within},
		{lower, tight(1), tight(1.2), worse},
		{lower, tight(1), tight(0.8), better},
		{higher, tight(100), tight(80), worse},
		{higher, tight(100), tight(125), better},
		{higher, tight(100), tight(95), within},
		// Spread wider than the bound and overlapping ranges: cannot tell.
		{lower, wide(1), wide(1.15), unresolved},
		// Spread wider than the bound but the ranges are apart: can tell.
		{lower, wide(1), wide(1.5), worse},
		{lower, summary{}, tight(1), unresolved},
	} {
		if got := judge(c.m, c.old, c.cur); got != c.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", c.m.name, c.old, c.cur, got, c.want)
		}
	}
}

func TestCompareSets(t *testing.T) {
	set := func(wall float64, failed int, simMS float64) setResult {
		s := setResult{Workloads: map[string]workloadResult{}}
		for _, w := range workloads {
			wr := workloadResult{Attempted: 100, Failed: failed, EndToEnd: map[string]summary{}, PerLayer: map[string]metricValue{}}
			for _, m := range endToEnd {
				wr.EndToEnd[m.name] = summary{Median: wall, Min: wall, Max: wall}
			}
			wr.PerLayer["sim_elapsed_ms"] = metricValue{Value: simMS}
			wr.PerLayer["sim.events"] = metricValue{Value: 1000}
			s.Workloads[w.name] = wr
		}
		return s
	}
	base := set(1, 0, 5)
	if w, u := compareSets(base, set(1.02, 0, 5), true); w != 0 || u != 0 {
		t.Errorf("a run within every bound: %d worse, %d unresolved", w, u)
	}
	if w, _ := compareSets(base, set(1, 1, 5), false); w != len(workloads) {
		t.Errorf("a rise in failures: %d worse rows, want one per workload", w)
	}
	if w, _ := compareSets(base, set(1, 0, 5.001), false); w != len(workloads) {
		t.Errorf("a longer simulated time: %d worse rows, want one per workload", w)
	}
	// ops_per_s is higher-better, so a uniform 1.5x makes it better and the
	// four lower-better metrics worse.
	if w, _ := compareSets(base, set(1.5, 0, 5), false); w != 4*len(workloads) {
		t.Errorf("everything 1.5x: %d worse rows, want %d", w, 4*len(workloads))
	}
}

func TestHighPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0.5}, {19, 0.5}, {20, 0.5}, {100, 0.9}, {999, 989.0 / 999}, {1000, 0.99}, {100000, 0.99},
	} {
		got := highPercentile(c.n)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("highPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		// Whatever is reported above the median has ten samples beyond it.
		if beyond := c.n - int(math.Ceil(got*float64(c.n))); got > 0.5 && beyond < tailMinBeyond {
			t.Errorf("highPercentile(%d) = %v leaves %d samples beyond", c.n, got, beyond)
		}
	}
	sorted := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(sorted, 0.5); got != 5 {
		t.Errorf("median of 1..10 by nearest rank = %d, want 5", got)
	}
	if got := percentile(sorted, 0.99); got != 10 {
		t.Errorf("p99 of 1..10 = %d, want 10", got)
	}
}

func TestCompositeSlices(t *testing.T) {
	kid := func(ns ...int64) childResult { return childResult{SliceNS: ns} }
	// A burst that hits a different slice of each repetition disappears.
	kids := []childResult{kid(10, 20, 90), kid(50, 20, 30), kid(10, 80, 30), kid(10, 20, 30), kid(11, 21, 31)}
	if got := compositeSlices(kids); !slices.Equal(got, []float64{10, 20, 30}) {
		t.Errorf("composite = %v, want [10 20 30]", got)
	}
	if got := compositeWall(kids); got != 60e-9 {
		t.Errorf("composite wall = %v s, want 60 ns", got)
	}
}

// The metric and workload names the program reports are the ones
// BENCHMARK.json declares, with the same units, directions and bounds.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []decl                       `json:"end_to_end"`
		PerLayer  []decl                       `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, spec.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, decls []decl, defs []metricDef) {
		if len(decls) != len(defs) {
			t.Fatalf("%s: %d metrics declared, %d implemented", kind, len(decls), len(defs))
		}
		for i, m := range defs {
			better := "lower"
			if m.higherBetter {
				better = "higher"
			}
			if want := (decl{m.name, m.unit, better, m.bound}); decls[i] != want {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, decls[i], want)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// The built program honours the runner's contract: given a workload it
// prints one JSON object last, with exactly the declared metrics of the
// requested mode.
func TestRunContract(t *testing.T) {
	exe := filepath.Join(t.TempDir(), "benchmark")
	if out, err := exec.Command("go", "build", "-o", exe, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for mode, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
		// Large enough that the profiler catches the timed region.
		cmd := exec.Command(exe, "--workload", "incast", "--seed", "3", "--seconds", "1", "--trace", mode, "--scale", "0.05")
		cmd.Dir = t.TempDir() // the trace file lands under the working directory
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("--trace %s: %v", mode, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res runResult
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			t.Fatalf("--trace %s: last line is not the result: %v", mode, err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("--trace %s: correct=%v attempted=%d failed=%d", mode, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("--trace %s: %d metrics, want %d", mode, len(res.Metrics), len(defs))
		}
		for _, m := range defs {
			got, ok := res.Metrics[m.name]
			if !ok || got.Unit != m.unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
				t.Errorf("--trace %s: metric %s = %+v (present %v), want a finite value in %s", mode, m.name, got, ok, m.unit)
			}
		}
		if mode == "1" {
			sum := 0.0
			for _, n := range shareNames {
				sum += res.Metrics["share."+n].Value
			}
			if math.Abs(sum-1) > 0.01 {
				t.Errorf("host-time shares sum to %v, want 1", sum)
			}
			if _, err := os.Stat(filepath.Join(cmd.Dir, "benchmark", "out", "incast.trace.json")); err != nil {
				t.Errorf("no trace file: %v", err)
			}
		}
	}
}

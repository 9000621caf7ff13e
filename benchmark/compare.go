package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// summary is one end-to-end metric of one workload in a results file: the
// median over the run's timed regions, with the extremes kept.
type summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// workloadResult is one workload's row of a results file.
type workloadResult struct {
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	EndToEnd  map[string]summary     `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
}

// setResult is a results file: every workload, both modes, one seed.
type setResult struct {
	Seed      uint64                    `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Scale     float64                   `json:"scale"`
	GoVersion string                    `json:"go_version"`
	NumCPU    int                       `json:"num_cpu"`
	Workloads map[string]workloadResult `json:"workloads"`
}

// runSet runs every workload untraced then traced and prints every metric.
// ok is false if any output was wrong.
func runSet(seed uint64, seconds, scale float64) (setResult, bool) {
	set := setResult{
		Seed: seed, Seconds: seconds, Scale: scale,
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		Workloads: map[string]workloadResult{},
	}
	ok := true
	for _, w := range workloads {
		plain := runOne(w, seed, seconds, scale, false)
		printMetrics(w.name, plain.result)
		traced := runOne(w, seed, seconds, scale, true)
		printMetrics(w.name, traced.result)
		wr := workloadResult{
			Attempted: plain.result.Attempted, Failed: plain.result.Failed,
			EndToEnd: map[string]summary{}, PerLayer: traced.result.Metrics,
		}
		for name, m := range plain.result.Metrics {
			wr.EndToEnd[name] = summary{m.Unit, m.Value, plain.spread[name][0], plain.spread[name][1]}
		}
		set.Workloads[w.name] = wr
		ok = ok && plain.result.Correct && traced.result.Correct
	}
	return set, ok
}

// verdict of one (metric, workload) comparison.
const (
	better     = "better"
	within     = "within"
	worse      = "worse"
	unresolved = "unresolved"
)

// judge compares a new median against an old one for a metric with a
// relative bound. When either side's min-max spread is wider than the
// bound and the two ranges overlap, the runs cannot tell the sides apart.
func judge(m metricDef, old, cur summary) string {
	if old.Median == 0 {
		return unresolved
	}
	change := (cur.Median - old.Median) / old.Median // >0: the number rose
	if m.higherBetter {
		change = -change
	}
	spread := func(s summary) float64 {
		if s.Median == 0 {
			return 0
		}
		return (s.Max - s.Min) / s.Median
	}
	overlap := old.Min <= cur.Max && cur.Min <= old.Max
	if (spread(old) > m.bound || spread(cur) > m.bound) && overlap {
		return unresolved
	}
	switch {
	case change > m.bound:
		return worse
	case change < -m.bound:
		return better
	}
	return within
}

// compareSets prints one row per (end-to-end metric, workload) and per
// exact result that changed, and counts the worse and the unresolved rows.
// With exactCounts set, every exact per-layer count must also be identical
// (two runs of one commit).
func compareSets(old, cur setResult, exactCounts bool) (nWorse, nUnresolved int) {
	row := func(v string) {
		switch v {
		case worse:
			nWorse++
		case unresolved:
			nUnresolved++
		}
	}
	fmt.Printf("%-12s %-12s %14s %14s %16s %7s  %s\n", "workload", "metric", "old", "new", "new/old", "bound", "verdict")
	for _, w := range workloads {
		o, haveOld := old.Workloads[w.name]
		n, haveNew := cur.Workloads[w.name]
		if !haveOld || !haveNew {
			fmt.Printf("%-12s missing from one file\n", w.name)
			row(worse)
			continue
		}
		for _, m := range endToEnd {
			was, now := o.EndToEnd[m.name], n.EndToEnd[m.name]
			v := judge(m, was, now)
			fmt.Printf("%-12s %-12s %14.6g %14.6g %8.3fx of old %6.0f%%  %s\n",
				w.name, m.name, was.Median, now.Median, now.Median/was.Median, 100*m.bound, v)
			row(v)
		}
		of, nf := float64(o.Failed)/float64(max(o.Attempted, 1)), float64(n.Failed)/float64(max(n.Attempted, 1))
		v := within
		if nf > of {
			v = worse
		}
		fmt.Printf("%-12s %-12s %14.6g %14.6g %16s %7s  %s\n", w.name, "fail_share", of, nf, "", "any", v)
		row(v)
		for _, m := range perLayer {
			if !m.exact {
				continue
			}
			ov, nv := o.PerLayer[m.name].Value, n.PerLayer[m.name].Value
			gate := exactCounts || strings.HasPrefix(m.name, "sim_")
			if ov == nv || !gate {
				continue
			}
			v := worse
			if nv < ov && !exactCounts {
				v = better
			}
			fmt.Printf("%-12s %-12s %14.9g %14.9g %16s %7s  %s\n", w.name, m.name, ov, nv, "", "exact", v)
			row(v)
		}
	}
	return nWorse, nUnresolved
}

func readSet(path string) (setResult, error) {
	var s setResult
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// compareFiles is -compare: exit status 1 on any worse row.
func compareFiles(oldPath, newPath string) int {
	old, err := readSet(oldPath)
	if err != nil {
		fatalf("%v", err)
	}
	cur, err := readSet(newPath)
	if err != nil {
		fatalf("%v", err)
	}
	if nWorse, _ := compareSets(old, cur, false); nWorse > 0 {
		return 1
	}
	return 0
}

// selfCheck is -selfcheck: the whole set twice, back to back, compared
// against itself. Two runs of one commit must agree within every bound,
// with every exact result identical and nothing unresolved.
func selfCheck(seed uint64, seconds, scale float64, out string) int {
	a, okA := runSet(seed, seconds, scale)
	b, okB := runSet(seed, seconds, scale)
	base := strings.TrimSuffix(out, ".json")
	must(writeJSON(base+".a.json", a))
	must(writeJSON(base+".b.json", b))
	nWorse, nUnresolved := compareSets(a, b, true)
	if nWorse > 0 || nUnresolved > 0 || !okA || !okB {
		return 1
	}
	return 0
}

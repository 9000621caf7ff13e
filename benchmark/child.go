package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// opDeadline is the simulated-time budget of one operation; a completion
// later than this counts as failed (a missed latency limit is a miss).
const opDeadline = 10 * sim.Second

// timedSlices is about how many RunFor slices a timed region is cut into.
const timedSlices = 200

// span is one in-memory trace record, written out by the parent when the
// run ends. Times are host nanoseconds since the child started.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = root
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Events  uint64 `json:"events"` // simulator events fired inside the span
	SimNS   int64  `json:"sim_ns"` // simulated time covered
}

// actor is one simulated application process of a workload plus what the
// driver records about it. Only the actor's own goroutine writes these
// fields while the simulation runs; the harness reads them between runs.
type actor struct {
	p        *sim.Proc
	parked   bool
	parkedAt sim.Time // when it reached the gate it is parked at
	warmOps  int      // operations completed before the timed phase
	timed    bool     // past the second gate: operations count
	stagger  sim.Time // seeded start offset after each gate opens
	lat      []int64  // per-op post→completion, simulated ns
	ops      int      // operations attempted in the timed phase
	failed   int      // of those (or of this actor's checks), how many failed
	end      sim.Time // when the actor finished; 0 = never did
}

// gate parks the actor until the harness opens the next phase.
func (a *actor) gate() {
	a.parked = true
	a.parkedAt = a.p.Now()
	a.p.Suspend()
}

// start is the gate in front of the timed phase.
func (a *actor) start() {
	a.gate()
	a.timed = true
}

// done records one client-side operation posted at postedAt.
func (a *actor) done(postedAt sim.Time, ok bool) {
	if !a.timed {
		a.warmOps++
		return
	}
	a.ops++
	d := a.p.Now() - postedAt
	if !ok || d > opDeadline {
		a.failed++
	}
	a.lat = append(a.lat, int64(d))
}

// check records one receiver-side verification.
func (a *actor) check(ok bool) {
	if a.timed && !ok {
		a.failed++
	}
}

// harness drives one workload instance through set-up, warm-up and the
// timed region, recording spans around each call into the simulator.
type harness struct {
	c         *core.Cluster
	actors    []*actor
	expectOps int // timed operations the workload will attempt
	began     time.Time
	spans     []span
	// verify, when set, is an extra end-of-run check (sharded's sequential
	// control); it reports a failure description or "".
	verify func(events uint64, simElapsed sim.Time) string
}

// spawn starts an actor on node's engine. latCap sizes its latency record
// so the timed phase never grows a slice.
func (h *harness) spawn(node int, name string, stagger sim.Time, latCap int, fn func(p *sim.Proc, a *actor)) {
	a := &actor{stagger: stagger, lat: make([]int64, 0, latCap)}
	a.p = h.c.SpawnOn(node, name, func(p *sim.Proc) {
		fn(p, a)
		a.end = p.Now()
	})
	h.actors = append(h.actors, a)
}

// release opens the gate every actor is parked at: each wakes at a common
// simulated instant plus its seeded stagger. The instant is derived from
// EndTime, which is identical for sequential and sharded runs.
func (h *harness) release() sim.Time {
	t0 := h.c.EndTime() + sim.Millisecond
	for _, a := range h.actors {
		if !a.parked {
			panic(fmt.Sprintf("benchmark: actor %s is not at the gate", a.p.Name()))
		}
		a.parked = false
		a.p.Engine().At(t0+a.stagger, "bench.gate", a.p.Wake)
	}
	return t0
}

func (h *harness) begin(name string, parent int) int {
	h.spans = append(h.spans, span{
		ID: len(h.spans) + 1, Parent: parent, Name: name,
		StartNS: int64(time.Since(h.began)),
		Events:  h.fired(), SimNS: int64(h.simEnd()),
	})
	return len(h.spans)
}

func (h *harness) finish(id int) *span {
	s := &h.spans[id-1]
	s.EndNS = int64(time.Since(h.began))
	s.Events = h.fired() - s.Events
	s.SimNS = int64(h.simEnd()) - s.SimNS
	return s
}

// fired and simEnd read the cluster's progress; zero before it is built.
func (h *harness) fired() uint64 {
	if h.c == nil {
		return 0
	}
	return h.c.FiredTotal()
}

func (h *harness) simEnd() sim.Time {
	if h.c == nil {
		return 0
	}
	return h.c.EndTime()
}

func (h *harness) allDone() bool {
	for _, a := range h.actors {
		if a.end == 0 {
			return false
		}
	}
	return true
}

// childResult is what one child process reports to the runner: one set-up
// and one timed region of one workload.
type childResult struct {
	Workload string `json:"workload"`
	Ops      int    `json:"ops"`
	Failed   int    `json:"failed"`
	Problem  string `json:"problem,omitempty"`

	SetupS     float64 `json:"setup_s"`
	WallS      float64 `json:"wall_s"`
	CPUS       float64 `json:"cpu_s"`
	Mallocs    uint64  `json:"mallocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
	PeakRSSMB  float64 `json:"peak_rss_mb"`

	// SliceNS and SliceEvents are the host time and the events fired of
	// each slice of the timed region, in order.
	SliceNS     []int64  `json:"slice_ns"`
	SliceEvents []uint64 `json:"slice_events"`

	SimElapsedNS int64   `json:"sim_elapsed_ns"`
	LatP50NS     int64   `json:"lat_p50_ns"`
	LatHighNS    int64   `json:"lat_high_ns"`
	LatHighQ     float64 `json:"lat_high_q"`
	LatSamples   int     `json:"lat_samples"`
	Events       uint64  `json:"events"`

	// Counts are exact per-layer counts over the timed region, read from
	// the layers' public accessors.
	Counts map[string]float64 `json:"counts"`

	// Traced runs only.
	Shares  map[string]float64 `json:"shares,omitempty"`
	Samples int                `json:"profile_samples,omitempty"`
	Spans   []span             `json:"spans,omitempty"`
	profile []byte             // the gzipped CPU profile the shares came from
}

// runChild performs one set-up and one timed region. The timed region is
// driven as about timedSlices RunFor slices of equal simulated length, each
// timed on the host clock: every repetition of one seed fires the same
// events in slice i, so the runner can set slice i of one repetition
// against slice i of another. With traced set the region is also sampled
// by the CPU profiler and every slice is kept as a span.
func runChild(w *workload, seed uint64, scale float64, traced bool, began time.Time) childResult {
	h := &harness{began: began, expectOps: w.ops(scale)}
	res := childResult{Workload: w.name}

	s := h.begin("setup.cluster", 0)
	w.build(h, seed, scale)
	h.finish(s)
	s = h.begin("setup.connect", 0)
	h.c.Run()
	h.finish(s)
	warmStart := h.release()
	s = h.begin("setup.warmup", 0)
	h.c.Run()
	h.finish(s)
	// The warm-up ran warmOps operations in warmSim of simulated time; the
	// timed region is expected to take expectOps/warmOps times as long.
	var warmSim sim.Time
	warmOps := 0
	for _, a := range h.actors {
		warmOps += a.warmOps
		if a.parkedAt-warmStart > warmSim {
			warmSim = a.parkedAt - warmStart
		}
	}
	step := sim.Time(float64(warmSim)*float64(h.expectOps)/float64(max(warmOps, 1))/timedSlices) + 1
	runtime.GC()

	before := readCounts(h.c)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	fired0 := h.c.FiredTotal()
	cpu0 := cpuSeconds()
	t0 := h.release()
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			panic(err)
		}
	}
	res.SetupS = time.Since(began).Seconds()

	run := h.begin("run", 0)
	for last := false; !last; {
		// The slice after the last actor finishes runs to quiescence.
		last = h.allDone() || len(res.SliceNS) >= 4*timedSlices
		fired, start := h.c.FiredTotal(), time.Now()
		sl := 0
		if traced {
			sl = h.begin("run.slice", run)
		}
		if last {
			h.c.Run()
		} else {
			h.c.RunFor(step)
		}
		res.SliceNS = append(res.SliceNS, int64(time.Since(start)))
		res.SliceEvents = append(res.SliceEvents, h.c.FiredTotal()-fired)
		if traced {
			h.finish(sl)
		}
	}
	region := h.finish(run)
	res.WallS = float64(region.EndNS-region.StartNS) / 1e9

	if traced {
		pprof.StopCPUProfile()
	}
	res.CPUS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)
	after := readCounts(h.c)

	res.Mallocs = ms1.Mallocs - ms0.Mallocs
	res.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	res.Events = h.c.FiredTotal() - fired0
	res.Counts = after.since(before)
	res.Counts["rt.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	res.Counts["rt.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	res.Counts["rt.heap_sys_mb"] = float64(ms1.HeapSys) / (1 << 20)

	var lat []int64
	var end sim.Time
	for _, a := range h.actors {
		res.Ops += a.ops
		res.Failed += a.failed
		lat = append(lat, a.lat...)
		if a.end > end {
			end = a.end
		}
	}
	if !h.allDone() {
		res.Problem = "actors still blocked at quiescence"
	}
	// Operations never attempted (a stuck actor) failed.
	if res.Ops < h.expectOps {
		res.Failed += h.expectOps - res.Ops
		res.Ops = h.expectOps
	}
	if res.Failed > res.Ops {
		res.Failed = res.Ops
	}
	res.SimElapsedNS = int64(end - t0)
	if elapsed := float64(end - t0); elapsed > 0 {
		res.Counts["qpipnic.fw_cpu_util"] = float64(maxBusy(after.nicBusy, before.nicBusy)) / elapsed
		res.Counts["host.cpu_util"] = float64(maxBusy(after.hostBusy, before.hostBusy)) / elapsed
	}
	if len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		res.LatSamples = len(lat)
		res.LatHighQ = highPercentile(len(lat))
		res.LatP50NS = percentile(lat, 0.5)
		res.LatHighNS = percentile(lat, res.LatHighQ)
	}
	if h.verify != nil && res.Problem == "" {
		res.Problem = h.verify(h.c.FiredTotal(), end-t0)
	}
	if res.Problem != "" {
		res.Failed = res.Ops
	}
	if traced {
		res.Spans = h.spans
		res.profile = prof.Bytes()
		shares, n, err := profileShares(res.profile)
		if err != nil {
			panic(err)
		}
		res.Shares, res.Samples = shares, n
	}
	res.PeakRSSMB = peakRSSMB()
	return res
}

func maxBusy(after, before []sim.Time) sim.Time {
	var m sim.Time
	for i := range after {
		if d := after[i] - before[i]; d > m {
			m = d
		}
	}
	return m
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		panic(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				panic(err)
			}
			return kb / 1024
		}
	}
	panic("benchmark: no VmHWM in /proc/self/status")
}

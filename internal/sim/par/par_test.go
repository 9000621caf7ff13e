package par_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/sim/par"
)

// ping is a toy cross-shard workload: each hop on engine s schedules, via a
// mailbox drained at the barrier, the next hop on the other engine exactly
// lat later — the minimal shape of the fabric's cross-shard handoff.
type ping struct {
	engines []*sim.Engine
	lat     sim.Time
	mail    []func() // pending cross-engine injections
	log     []sim.Time
	hops    int
}

func (p *ping) hop(from int) func() {
	return func() {
		e := p.engines[from]
		p.log = append(p.log, e.Now())
		if p.hops <= 0 {
			return
		}
		p.hops--
		to := 1 - from
		at := e.Now() + p.lat
		p.mail = append(p.mail, func() {
			p.engines[to].At(at, "hop", p.hop(to))
		})
	}
}

func (p *ping) exchange() int {
	n := len(p.mail)
	for _, fn := range p.mail {
		fn()
	}
	p.mail = p.mail[:0]
	return n
}

func TestRunPingPongAcrossShards(t *testing.T) {
	p := &ping{
		engines: []*sim.Engine{sim.NewEngine(), sim.NewEngine()},
		lat:     5,
		hops:    10,
	}
	p.engines[0].At(0, "hop", p.hop(0))
	par.Run(par.Config{Engines: p.engines, Lookahead: p.lat, Exchange: p.exchange})

	if len(p.log) != 11 {
		t.Fatalf("fired %d hops, want 11", len(p.log))
	}
	for i, at := range p.log {
		if want := sim.Time(i) * p.lat; at != want {
			t.Errorf("hop %d fired at %v, want %v", i, at, want)
		}
	}
	if got := p.engines[0].Fired() + p.engines[1].Fired(); got != 11 {
		t.Errorf("fired totals sum to %d, want 11", got)
	}
}

// TestRunUntilLimit: events beyond the limit stay queued, and every shard
// clock lands exactly on the limit (mirroring sim.Engine.RunUntil).
func TestRunUntilLimit(t *testing.T) {
	p := &ping{
		engines: []*sim.Engine{sim.NewEngine(), sim.NewEngine()},
		lat:     5,
		hops:    100,
	}
	p.engines[0].At(0, "hop", p.hop(0))
	par.RunUntil(par.Config{Engines: p.engines, Lookahead: p.lat, Exchange: p.exchange}, 23)

	if len(p.log) != 5 { // hops at 0,5,10,15,20
		t.Fatalf("fired %d hops by t=23, want 5", len(p.log))
	}
	for i, e := range p.engines {
		if e.Now() != 23 {
			t.Errorf("engine %d clock %v after RunUntil(23), want 23", i, e.Now())
		}
	}
	// Resuming runs the rest of the schedule seamlessly.
	par.Run(par.Config{Engines: p.engines, Lookahead: p.lat, Exchange: p.exchange})
	if len(p.log) != 101 {
		t.Errorf("fired %d hops after resume, want 101", len(p.log))
	}
}

// TestFreeRunWithoutLookahead: zero lookahead (no cross-shard links) drains
// each engine independently in one epoch.
func TestFreeRunWithoutLookahead(t *testing.T) {
	engines := []*sim.Engine{sim.NewEngine(), sim.NewEngine()}
	var fired [2]int
	for i, e := range engines {
		i := i
		for k := 0; k < 4; k++ {
			e.At(sim.Time(k*7), "tick", func() { fired[i]++ })
		}
	}
	par.Run(par.Config{Engines: engines})
	if fired[0] != 4 || fired[1] != 4 {
		t.Errorf("fired = %v, want [4 4]", fired)
	}
}

// TestShardPanicPropagates: a model panic on a worker thread re-raises on
// the coordinating goroutine instead of crashing the process.
func TestShardPanicPropagates(t *testing.T) {
	engines := []*sim.Engine{sim.NewEngine(), sim.NewEngine()}
	engines[1].At(3, "boom", func() { panic("model bug on shard 1") })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("shard panic was swallowed")
		}
		if !strings.Contains(r.(string), "model bug on shard 1") {
			t.Fatalf("recovered %q, want the shard's panic value", r)
		}
	}()
	par.Run(par.Config{Engines: engines, Lookahead: 1, Exchange: func() int { return 0 }})
}

// TestCoordinatorShardPanicPropagates: shard 0 runs on the coordinating
// goroutine itself, and its panic surfaces in the same form as a worker's.
func TestCoordinatorShardPanicPropagates(t *testing.T) {
	engines := []*sim.Engine{sim.NewEngine(), sim.NewEngine()}
	engines[0].At(3, "boom", func() { panic("model bug on shard 0") })
	engines[1].At(3, "tick", func() {})
	defer func() {
		r, _ := recover().(string)
		if want := "par: shard panicked: model bug on shard 0"; r != want {
			t.Fatalf("recovered %q, want %q", r, want)
		}
	}()
	par.Run(par.Config{Engines: engines, Lookahead: 1, Exchange: func() int { return 0 }})
}

// TestPanicsLeakNoWorkers: a shard 0 panic mid-epoch is re-raised only after
// every worker has finished that epoch, so the workers all exit. After 100
// runs, half of them panicking, the goroutine count is no higher than it
// began.
func TestPanicsLeakNoWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		engines := []*sim.Engine{sim.NewEngine(), sim.NewEngine(), sim.NewEngine()}
		for _, e := range engines[1:] {
			for k := 0; k < 50; k++ {
				e.At(sim.Time(k), "tick", func() {})
			}
		}
		if i%2 == 0 {
			engines[0].At(0, "boom", func() { panic("shard 0") })
		}
		func() {
			defer func() {
				if r := recover(); (r != nil) != (i%2 == 0) {
					t.Fatalf("run %d: recovered %v", i, r)
				}
			}()
			par.Run(par.Config{Engines: engines, Lookahead: 10, Exchange: func() int { return 0 }})
		}()
	}
	// Run waits for its workers to close done; their last instructions
	// after that may still be running.
	for wait := 0; runtime.NumGoroutine() > before && wait < 100; wait++ {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines %d after 100 runs, %d before", after, before)
	}
}

// TestShardPanicInProcPropagates: a panic inside a sim.Proc surfaces from
// the Wake that resumed it, on the shard's worker, so it re-raises on the
// coordinator like any other model panic.
func TestShardPanicInProcPropagates(t *testing.T) {
	engines := []*sim.Engine{sim.NewEngine(), sim.NewEngine()}
	engines[1].Spawn("faulty", func(p *sim.Proc) {
		p.Sleep(3)
		panic("proc bug on shard 1")
	})
	defer func() {
		r, _ := recover().(string)
		if want := "par: shard panicked: proc bug on shard 1"; r != want {
			t.Fatalf("recovered %q, want %q", r, want)
		}
	}()
	par.Run(par.Config{Engines: engines, Lookahead: 1, Exchange: func() int { return 0 }})
}

// TestEmptyConfig: no engines is a no-op, and engines with no events
// terminate immediately.
func TestEmptyConfig(t *testing.T) {
	par.Run(par.Config{})
	e := sim.NewEngine()
	par.Run(par.Config{Engines: []*sim.Engine{e}, Lookahead: 1, Exchange: func() int { return 0 }})
	if e.Fired() != 0 {
		t.Errorf("fired %d events on an empty engine", e.Fired())
	}
}

// TestMailFloorWidensEpochs: a MailFloor is the whole epoch window. Two
// engines tick locally every nanosecond with no cross-shard traffic. A
// floor past minNext ends each epoch just before it; a floor that reports
// false lets the shards run free, one epoch; and a floor at minNext could
// never advance, so the runner panics, printing both times to the
// nanosecond.
func TestMailFloorWidensEpochs(t *testing.T) {
	run := func(lookahead sim.Time, floor func(next []sim.Time) (sim.Time, bool)) int {
		engs := []*sim.Engine{sim.NewEngine(), sim.NewEngine()}
		for _, e := range engs {
			left := 100
			var tick func()
			tick = func() {
				if left--; left > 0 {
					e.After(1, "tick", tick)
				}
			}
			e.At(sim.Millisecond, "tick", tick)
		}
		epochs := par.Run(par.Config{Engines: engs, Lookahead: lookahead, Exchange: func() int { return 0 }, MailFloor: floor})
		if fired := engs[0].Fired() + engs[1].Fired(); fired != 200 {
			t.Errorf("fired %d events, want 200", fired)
		}
		return epochs
	}
	if got := run(5, nil); got != 20 {
		t.Errorf("wire-latency windows: %d epochs, want 20", got)
	}
	if got := run(0, func(next []sim.Time) (sim.Time, bool) { return next[0] + 50, true }); got != 2 {
		t.Errorf("a floor 50 ns out: %d epochs, want 2", got)
	}
	if got := run(0, func([]sim.Time) (sim.Time, bool) { return 0, false }); got != 1 {
		t.Errorf("a floor that reports no crossing: %d epochs, want 1", got)
	}

	defer func() {
		msg, _ := recover().(string)
		for _, want := range []string{"cannot advance", "1000000ns"} {
			if !strings.Contains(msg, want) {
				t.Errorf("a floor at minNext: recovered %q, want a panic naming %q", msg, want)
			}
		}
	}()
	run(5, func(next []sim.Time) (sim.Time, bool) { return min(next[0], next[1]), true })
}

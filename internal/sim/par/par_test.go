package par_test

import (
	"strings"
	"testing"

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

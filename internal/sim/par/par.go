// Package par is the conservative parallel runner for sharded simulations.
//
// A sharded cluster assigns every node to one of N shards, each shard
// owning a private sim.Engine. The runner advances all engines in lockstep
// epochs. At each barrier the model publishes its mail floor
// (Config.MailFloor): the earliest arrival any cross-shard handoff posted
// in the coming epoch can have. The epoch runs every engine up to just
// before that floor, so every event fired in the window that hands work to
// another shard produces an arrival strictly beyond it. Shards therefore
// run the window concurrently without ever needing input from each other,
// and the cross-shard handoffs buffered during the window are injected at
// the barrier, before the next window is computed. A config without a
// MailFloor bounds the window by a fixed Lookahead instead: the minimum
// latency any handoff needs, so the window is [minNext, minNext+L-1].
// Injection order is fixed by the Exchange hook (fabrics drain their
// per-sender outboxes in a fixed order), so the schedule — and every
// trace and counter derived from it — is a pure function of the workload
// and seeds, independent of how the OS interleaves the worker threads.
//
// This is the ONE simulated package where goroutines and sync primitives
// are legal (enforced by qpiplint's nogoroutine allowlist): all other model
// code still runs single-threaded inside exactly one engine, and the
// determinism argument reduces to the barrier algebra above.
package par

import (
	"fmt"

	"repro/internal/sim"
)

// runFree is the command telling a worker to drain its engine to quiescence
// (no horizon). Used when nothing can cross between shards, so every
// shard's schedule is already closed under its own events.
const runFree sim.Time = -1

// Config describes one parallel run.
type Config struct {
	// Engines are the shard engines, indexed by shard.
	Engines []*sim.Engine
	// Lookahead is the minimum cross-shard handoff latency, the window of
	// a config without MailFloor. Zero means no cross-shard links exist:
	// shards run free, one epoch.
	Lookahead sim.Time
	// Exchange injects all buffered cross-shard handoffs into their
	// destination engines and returns how many were injected. It is called
	// only between epochs, on the coordinating goroutine, with every worker
	// parked at the barrier. Nil means there is nothing to exchange.
	Exchange func() int
	// MailFloor, when set, bounds from below the arrival time of every
	// cross-shard handoff the coming epoch can post, and replaces
	// Lookahead. next[i] is Engines[i]'s next event time, negative when it
	// has none. It is called at each barrier, after Exchange, with every
	// worker parked; the epoch then ends at the floor minus one. A report
	// of false means nothing can cross: shards run free. A floor not past
	// the earliest pending event cannot advance the run, and panics.
	MailFloor func(next []sim.Time) (sim.Time, bool)
}

// worker owns one engine for the duration of a run. Commands carry the
// epoch horizon (or runFree); each command is answered on done, which also
// publishes the worker's memory writes back to the coordinator. Closing cmd
// ends the worker, which then closes done.
type worker struct {
	eng  *sim.Engine
	cmd  chan sim.Time
	done chan struct{}
	err  any // recovered panic, re-raised by the coordinator
}

func (w *worker) loop() {
	for horizon := range w.cmd {
		w.err = runEpoch(w.eng, horizon)
		w.done <- struct{}{}
	}
	close(w.done)
}

// runEpoch runs one engine to the horizon (or to quiescence for runFree)
// and returns the panic it raised, if any.
func runEpoch(eng *sim.Engine, horizon sim.Time) (err any) {
	defer func() { err = recover() }()
	if horizon == runFree {
		eng.Run()
	} else {
		eng.RunUntil(horizon)
	}
	return nil
}

// Run advances all engines to global quiescence using lockstep epochs and
// reports how many epochs it ran. A model panic on any shard is re-raised
// on the caller's goroutine with the shard identified.
func Run(cfg Config) int { return RunUntil(cfg, -1) }

// RunUntil is Run with an inclusive time limit: events with timestamps
// <= limit execute, then every shard clock is forced to limit (mirroring
// sim.Engine.RunUntil). A negative limit means no limit. It reports how
// many epochs it ran, the clock-forcing one included.
//
// The calling goroutine coordinates and runs shard 0's epochs itself;
// shards 1..n-1 each get a worker goroutine for the duration of the call.
func RunUntil(cfg Config, limit sim.Time) (epochs int) {
	if len(cfg.Engines) == 0 {
		return 0
	}
	workers := make([]*worker, len(cfg.Engines)-1)
	for i, eng := range cfg.Engines[1:] {
		w := &worker{eng: eng, cmd: make(chan sim.Time), done: make(chan struct{})}
		workers[i] = w
		go w.loop() // legal: internal/sim/par is nogoroutine's shard-runner allowlist
	}
	defer func() {
		for _, w := range workers {
			close(w.cmd)
		}
		for _, w := range workers {
			<-w.done
		}
	}()

	// A panic is re-raised only once every worker has answered, so every
	// worker is idle on cmd when the deferred shutdown runs.
	epoch := func(horizon sim.Time) {
		epochs++
		for _, w := range workers {
			w.cmd <- horizon
		}
		err := runEpoch(cfg.Engines[0], horizon)
		for _, w := range workers {
			<-w.done
			if err == nil {
				err = w.err
			}
		}
		if err != nil {
			panic(fmt.Sprintf("par: shard panicked: %v", err))
		}
	}

	// Invariant at the top of each iteration: all cross-shard mailboxes are
	// empty (Exchange ran after the previous epoch; they start empty).
	next := make([]sim.Time, len(cfg.Engines))
	for {
		minNext, any := nextAcross(cfg.Engines, next)
		if !any || (limit >= 0 && minNext > limit) {
			break
		}
		floor, cross := minNext+cfg.Lookahead, cfg.Lookahead > 0
		if cfg.MailFloor != nil {
			floor, cross = cfg.MailFloor(next)
			if cross && floor <= minNext {
				panic(fmt.Sprintf("par: mail floor %dns is not past the earliest pending event %dns: the run cannot advance",
					int64(floor), int64(minNext)))
			}
		}
		switch {
		case cross && (limit < 0 || floor <= limit):
			epoch(floor - 1)
		case limit >= 0:
			epoch(limit)
		default:
			// Nothing can cross: one free-running epoch drains everything.
			epoch(runFree)
		}
		if cfg.Exchange != nil {
			cfg.Exchange()
		} else if !cross {
			break // free-running with nothing to exchange: done in one epoch
		}
	}
	if limit >= 0 {
		// Mirror sequential RunUntil: force every clock to the limit.
		epoch(limit)
	}
	return epochs
}

// nextAcross reports the earliest pending event timestamp across engines,
// reading each engine's NextAt once into next (negative: none pending).
func nextAcross(engines []*sim.Engine, next []sim.Time) (sim.Time, bool) {
	var minNext sim.Time
	any := false
	for i, e := range engines {
		t, ok := e.NextAt()
		if !ok {
			next[i] = -1
			continue
		}
		next[i] = t
		if !any || t < minNext {
			minNext, any = t, true
		}
	}
	return minNext, any
}

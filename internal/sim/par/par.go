// Package par is the conservative parallel runner for sharded simulations.
//
// A sharded cluster assigns every node to one of N shards, each shard
// owning a private sim.Engine. The runner advances all engines in lockstep
// epochs. At each barrier the model publishes its mail floor
// (Config.MailFloor): the earliest arrival any cross-shard handoff posted
// in the coming epoch can have. The epoch runs every engine up to just
// before that floor, so every event fired in the window that hands work to
// another shard produces an arrival strictly beyond it. No shard therefore
// needs input from another within the window, and the cross-shard handoffs
// buffered during it are injected at the barrier, before the next window
// is computed. A config without a MailFloor bounds the window by a fixed
// Lookahead instead: the minimum latency any handoff needs, so the window
// is [minNext, minNext+L-1]. An epoch no mail can cross (no live floor, or
// a zero Lookahead) runs every shard free, to quiescence or the limit.
//
// Every epoch runs its shards one after another on the calling goroutine,
// in shard order, so a whole sharded world runs on one goroutine, as a
// sequential one does. Injection order is fixed by the Exchange hook
// (fabrics drain their per-sender outboxes in a fixed order), so the
// schedule — and every trace and counter derived from it — is a pure
// function of the workload and seeds, independent of the order shards run
// in within an epoch.
package par

import (
	"fmt"

	"repro/internal/sim"
)

// runFree is the horizon telling an epoch to drain its engines to
// quiescence. Used when nothing can cross between shards, so every
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
	// only between epochs, on the calling goroutine, with no shard running.
	// Nil means there is nothing to exchange.
	Exchange func() int
	// MailFloor, when set, bounds from below the arrival time of every
	// cross-shard handoff the coming epoch can post, and replaces
	// Lookahead. next[i] is Engines[i]'s next event time, negative when it
	// has none. It is called at each barrier, after Exchange, with no shard
	// running; the epoch then ends at the floor minus one. A report of
	// false means nothing can cross: shards run free. A floor not past
	// the earliest pending event cannot advance the run, and panics.
	MailFloor func(next []sim.Time) (sim.Time, bool)
}

// epoch runs every engine, in shard order on the calling goroutine, to
// the horizon or, for runFree, to quiescence. A shard's panic reaches the
// caller unchanged.
func epoch(engines []*sim.Engine, horizon sim.Time) {
	for _, eng := range engines {
		if horizon == runFree {
			eng.Run()
		} else {
			eng.RunUntil(horizon)
		}
	}
}

// Run advances all engines to global quiescence using lockstep epochs and
// reports how many epochs it ran. A model panic on any shard propagates
// to the caller as it was raised.
func Run(cfg Config) int { return RunUntil(cfg, -1) }

// RunUntil is Run with an inclusive time limit: events with timestamps
// <= limit execute, then every shard clock is forced to limit (mirroring
// sim.Engine.RunUntil). A negative limit means no limit. It reports how
// many epochs it ran, the clock-forcing one included.
func RunUntil(cfg Config, limit sim.Time) (epochs int) {
	if len(cfg.Engines) == 0 {
		return 0
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
		epochs++
		switch {
		case cross && (limit < 0 || floor <= limit):
			epoch(cfg.Engines, floor-1)
		case limit >= 0:
			epoch(cfg.Engines, limit)
		default:
			// Nothing can cross: one free-running epoch drains everything.
			epoch(cfg.Engines, runFree)
		}
		if cfg.Exchange != nil {
			cfg.Exchange()
		} else if !cross {
			break // free-running with nothing to exchange: done in one epoch
		}
	}
	if limit >= 0 {
		// Mirror sequential RunUntil: force every clock to the limit.
		epochs++
		epoch(cfg.Engines, limit)
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

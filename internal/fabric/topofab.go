package fabric

// This file is the multi-hop forwarding path: when Config.Topo names a
// switch graph (internal/topo), frames stop teleporting through the
// legacy one-crossbar star and instead walk their precomputed source
// route hop by hop, contending for each egress port on the way.
//
// Timing model (cut-through): the source link serializes the frame
// (src.up.Do, as on the star path), the last byte reaches the first
// switch one HopLatency later, every granted egress adds one HopLatency
// to the next switch, and the final egress adds PropDelay down to the
// destination handler. An egress grant holds the port for the frame's
// serialization time — cut-through streams the body while the head moves
// on, so contention (not transit) is what the hold models. The
// degenerate one-switch star therefore delivers at exactly the legacy
// txDone + HopLatency + PropDelay.
//
// Arbitration must be deterministic across sequential and sharded runs,
// where same-tick event insertion order differs (barrier injection vs
// direct scheduling). The kick/resolve protocol makes every grant a pure
// function of timestamps:
//
//   - an arrival enqueues itself and schedules a same-tick "resolve";
//   - a resolve created at its own firing tick always fires after every
//     same-tick arrival (arrivals are inserted from earlier ticks, so
//     their sequence numbers are lower), and thus sees the complete
//     pending set;
//   - a resolve on a busy port arms one "kick" at busyUntil, which just
//     schedules a fresh same-tick resolve when the port frees;
//   - a grant pops the (arrival time, ingress port)-minimum entry —
//     FIFO per port, ties broken by ingress port index.
//
// Event counts are likewise timestamp-functions, keeping FiredTotal
// invariant across shard placements (the PR 7 bit-identity gate).

import (
	"fmt"

	"repro/internal/sim"
)

// pendTransit is one frame waiting for an egress grant.
type pendTransit struct {
	at      sim.Time // arrival tick at this switch
	ingress int      // ingress port index — the contention tie-breaker
	fr      *Frame
}

// egress is one switch output port's arbitration state. All fields are
// touched only from the owning switch's engine.
type egress struct {
	eng       *sim.Engine
	busyUntil sim.Time
	kickArmed bool
	pending   []pendTransit
	resolveFn func()
	kickFn    func()
	// outbox buffers this egress's cross-shard handoffs, drained at
	// epoch barriers after the endpoint ports' outboxes.
	outbox []mail
}

// swState is one switch: an engine home and its egress ports.
type swState struct {
	eng   *sim.Engine
	ports []*egress
}

// initTopo lazily builds the per-switch arbitration state once all
// attachments exist (first Send or CrossShardLookahead). A switch is
// homed on its lowest attached endpoint's engine so single-shard runs
// stay single-engine; endpoint-less switches (fat-tree spines) home on
// the fabric's own engine.
func (f *Fabric) initTopo() {
	if f.sws != nil {
		return
	}
	g := f.cfg.Topo
	if g.Endpoints() != len(f.ports) {
		panic(fmt.Sprintf("fabric %s: topology wires %d endpoints, %d attached",
			f.cfg.Name, g.Endpoints(), len(f.ports)))
	}
	f.sws = make([]*swState, g.Switches())
	for s := range f.sws {
		eng := f.eng
		for p := 0; p < g.Ports(s); p++ {
			if pt := g.PortAt(s, p); pt.Endpoint() {
				eng = f.ports[pt.Ep].eng
				break
			}
		}
		sw := &swState{eng: eng, ports: make([]*egress, g.Ports(s))}
		for p := range sw.ports {
			op := &egress{eng: eng}
			op.resolveFn = func() { f.topoResolve(op) }
			op.kickFn = func() {
				op.kickArmed = false
				op.eng.After(0, "fabric.arb", op.resolveFn)
			}
			sw.ports[p] = op
		}
		f.sws[s] = sw
	}
}

// sendTopo launches a frame onto the switch graph. Send already applied
// the fault decision; duplication is realized here as an independent
// trailing copy (each copy owns one delivery), since the copies may be
// arbitrated apart at any hop.
//
//qpip:hotpath
func (f *Fabric) sendTopo(frame *Frame, src *port) {
	//lint:qpip-allow hotprop lazy one-time topology construction; every send after the first takes the initialized fast path
	f.initTopo()
	frame.deliveries = 1
	frame.hops = f.cfg.Topo.Route(frame.Src, frame.Dst)
	frame.hop = 0
	if f.severCross {
		for _, h := range frame.hops {
			if f.sws[h.Sw].eng != src.eng {
				panic(fmt.Sprintf("fabric %s: frame %d->%d crosses severed shard boundary at switch %d",
					f.cfg.Name, frame.Src, frame.Dst, h.Sw))
			}
		}
	}
	if frame.ttxFn == nil || frame.dlvrFn == nil {
		//lint:qpip-allow hotprop topology continuations are bound once per pooled frame and survive recycling
		frame.bindTopoFns()
	}
	src.up.Do(frame.ser, "fabric.tx", frame.ttxFn)
}

// bindTopoFns builds the topology-path continuations (once per frame
// object, like bindFns; pooled frames keep them across recycling).
func (fr *Frame) bindTopoFns() {
	fr.ttxFn = func() {
		if fr.onTx != nil {
			fr.onTx()
		}
		f := fr.fab
		f.topoLaunch(fr, 0)
		if fr.dup {
			fr.sport.duplicated++
			clone := NewFrame(fr.Src, fr.Dst, fr.WireSize, fr.Payload)
			clone.deliveries = 1
			clone.fab, clone.sport, clone.dport = f, fr.sport, fr.dport
			clone.ser, clone.delay = fr.ser, fr.delay
			clone.hops, clone.hop = fr.hops, 0
			if clone.ttxFn == nil || clone.dlvrFn == nil {
				clone.bindTopoFns()
			}
			f.topoLaunch(clone, fr.ser)
		}
	}
	fr.tarrFn = func() { fr.fab.topoArrive(fr) }
	if fr.dlvrFn == nil {
		fr.dlvrFn = func() { fr.fab.deliver(fr.dport, fr) }
	}
}

// topoLaunch schedules a frame's arrival at its first switch: one
// HopLatency (plus any fault delay) after the transmitter frees. The
// duplicate copy trails by extra = one serialization time, so the
// endpoint-port outbox stays time-ordered.
func (f *Fabric) topoLaunch(fr *Frame, extra sim.Time) {
	sp := fr.sport
	sw := f.sws[fr.hops[0].Sw]
	d := f.cfg.HopLatency + fr.delay + extra
	if sw.eng != sp.eng {
		sp.outbox = append(sp.outbox, mail{eng: sw.eng, at: sp.eng.Now() + d, name: "fabric.hop", fn: fr.tarrFn})
		return
	}
	sp.eng.After(d, "fabric.hop", fr.tarrFn)
}

// topoArrive runs on the switch's engine when a frame reaches switch
// fr.hops[fr.hop]: the frame joins its egress port's pending queue and a
// same-tick resolve decides the grant after all of this tick's arrivals
// are queued.
//
//qpip:hotpath
func (f *Fabric) topoArrive(fr *Frame) {
	h := fr.hops[fr.hop]
	op := f.sws[h.Sw].ports[h.Out]
	op.pending = append(op.pending, pendTransit{at: op.eng.Now(), ingress: h.In, fr: fr})
	op.eng.After(0, "fabric.arb", op.resolveFn)
}

// takeGrant removes and returns the pending entry the arbiter grants
// next: FIFO per port, same-tick ties to the lowest ingress port. It is
// the first (at, ingress)-minimum in queue order, so identical keys —
// back-to-back frames through one upstream link — keep their queue order,
// which is itself mode-invariant (they were scheduled through one upstream
// serialization queue, in time order). Removal preserves the order of the
// rest and later arrivals append, so the grant sequence is exactly that of
// stable-sorting the queue on every grant, at the cost of one pass.
func (op *egress) takeGrant() pendTransit {
	best := 0
	for i := 1; i < len(op.pending); i++ {
		p, b := &op.pending[i], &op.pending[best]
		if p.at < b.at || (p.at == b.at && p.ingress < b.ingress) {
			best = i
		}
	}
	head := op.pending[best]
	rest := best + copy(op.pending[best:], op.pending[best+1:])
	op.pending[rest] = pendTransit{}
	op.pending = op.pending[:rest]
	return head
}

// topoResolve is the egress arbiter: grant the oldest pending frame if
// the port is free, else arm one kick for when it frees.
//
//qpip:hotpath
func (f *Fabric) topoResolve(op *egress) {
	now := op.eng.Now()
	if op.busyUntil > now {
		if !op.kickArmed {
			op.kickArmed = true
			op.eng.At(op.busyUntil, "fabric.kick", op.kickFn)
		}
		return
	}
	if len(op.pending) == 0 {
		return
	}
	head := op.takeGrant()
	op.busyUntil = now + head.fr.ser
	if len(op.pending) > 0 {
		op.kickArmed = true
		op.eng.At(op.busyUntil, "fabric.kick", op.kickFn)
	}
	f.topoDepart(op, head.fr)
}

// topoDepart forwards a granted frame out its egress: on to the next
// switch one HopLatency away, or down the destination link after
// PropDelay (cut-through streamed the body during the grant's hold).
//
//qpip:hotpath
func (f *Fabric) topoDepart(op *egress, fr *Frame) {
	now := op.eng.Now()
	if fr.hop == len(fr.hops)-1 {
		dp := fr.dport
		if dp.eng != op.eng {
			op.outbox = append(op.outbox, mail{eng: dp.eng, at: now + f.cfg.PropDelay, name: "fabric.deliver", fn: fr.dlvrFn})
			return
		}
		op.eng.After(f.cfg.PropDelay, "fabric.deliver", fr.dlvrFn)
		return
	}
	fr.hop++
	nsw := f.sws[fr.hops[fr.hop].Sw]
	if nsw.eng != op.eng {
		op.outbox = append(op.outbox, mail{eng: nsw.eng, at: now + f.cfg.HopLatency, name: "fabric.hop", fn: fr.tarrFn})
		return
	}
	op.eng.After(f.cfg.HopLatency, "fabric.hop", fr.tarrFn)
}

// topoLookahead generalizes CrossShardLookahead to the switch graph: the
// minimum latency over directed edges that cross engines. A transmit or
// switch-to-switch hop first touches the peer engine one HopLatency out;
// a final egress grant touches the endpoint's engine PropDelay out.
func (f *Fabric) topoLookahead() (sim.Time, bool) {
	f.initTopo()
	g := f.cfg.Topo
	la, cross := sim.Time(0), false
	edge := func(a, b *sim.Engine, d sim.Time) {
		if a == b {
			return
		}
		if !cross || d < la {
			la = d
		}
		cross = true
	}
	for s := range f.sws {
		for p := 0; p < g.Ports(s); p++ {
			pt := g.PortAt(s, p)
			switch {
			case pt.Endpoint():
				edge(f.ports[pt.Ep].eng, f.sws[s].eng, f.cfg.HopLatency)
				edge(f.sws[s].eng, f.ports[pt.Ep].eng, f.cfg.PropDelay)
			case pt.Sw >= 0:
				edge(f.sws[s].eng, f.sws[pt.Sw].eng, f.cfg.HopLatency)
			}
		}
	}
	return la, cross
}

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
	// lat is the link latency to the peer: HopLatency to a switch,
	// PropDelay down to an attachment.
	lat sim.Time
	box outbox
}

// swState is one switch: an engine home and its egress ports.
type swState struct {
	eng   *sim.Engine
	ports []*egress
}

// initTopo lazily builds the per-switch arbitration state once all
// attachments exist (first Send or MailFloor). A switch is homed on its
// lowest attached endpoint's engine so single-shard runs stay
// single-engine; endpoint-less switches (fat-tree spines) home on the
// fabric's own engine. An attachment's outbox crosses when its switch is
// homed elsewhere, an egress's when its peer is.
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
		f.sws[s] = &swState{eng: eng, ports: make([]*egress, g.Ports(s))}
	}
	for s, sw := range f.sws {
		for p := range sw.ports {
			op := &egress{eng: sw.eng, box: outbox{name: fmt.Sprintf("switch %d egress %d", s, p)}}
			switch pt := g.PortAt(s, p); {
			case pt.Endpoint():
				ep := f.ports[pt.Ep]
				ep.box.cross = ep.eng != sw.eng
				op.box.cross, op.lat = ep.box.cross, f.cfg.PropDelay
			case pt.Sw >= 0:
				op.box.cross, op.lat = f.sws[pt.Sw].eng != sw.eng, f.cfg.HopLatency
			}
			op.resolveFn = func() { f.topoResolve(op) }
			op.kickFn = func() {
				op.kickArmed = false
				op.eng.After(0, "fabric.arb", op.resolveFn)
			}
			sw.ports[p] = op
			f.boxes = append(f.boxes, &op.box)
		}
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
	at := sp.eng.Now() + f.cfg.HopLatency + fr.delay + extra
	f.handoff(&sp.box, sp.eng, f.sws[fr.hops[0].Sw].eng, at, "fabric.hop", fr.tarrFn)
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
	at := op.eng.Now() + op.lat
	if fr.hop == len(fr.hops)-1 {
		f.handoff(&op.box, op.eng, fr.dport.eng, at, "fabric.deliver", fr.dlvrFn)
		return
	}
	fr.hop++
	f.handoff(&op.box, op.eng, f.sws[fr.hops[fr.hop].Sw].eng, at, "fabric.hop", fr.tarrFn)
}

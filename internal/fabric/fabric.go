// Package fabric simulates the two interconnects of the paper's testbed:
// a Myrinet-style SAN (switched, source-routed, cut-through, arbitrary MTU,
// 2.0 Gb/s full-duplex links — paper §4.1) and a Gigabit Ethernet segment
// with a store-and-forward switch.
//
// Topology defaults to a single star: every attachment connects to one
// switch with a dedicated full-duplex link, matching the paper's
// two-node-plus-switch testbed. Each direction of each link is a
// sim.Server, so serialization time and link contention are modeled;
// cut-through versus store-and-forward decides whether the switch
// re-serializes the frame. Config.Topo replaces the star with an explicit
// switch graph (internal/topo) walked hop by hop with per-egress
// arbitration — see topofab.go.
package fabric

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/sim"
	"repro/internal/topo"
)

// Frame is a link-layer frame in flight. Payload is opaque to the fabric.
type Frame struct {
	Src, Dst int
	// WireSize is the total bytes the frame occupies on the wire,
	// including link-layer overhead.
	WireSize int
	// Payload is the network-layer packet (owned by the stacks).
	Payload any

	// pooled marks frames from NewFrame's pool; only those are recycled.
	pooled bool
	// deliveries counts pending handler invocations (2 when the fault
	// layer duplicates); the frame is recycled after the last one.
	deliveries int8

	// In-flight transit state: the continuations below are bound to the
	// frame once (surviving pool recycling), so a fault-free transit
	// schedules no per-frame closures.
	fab    *Fabric
	sport  *port
	dport  *port
	onTx   func()
	delay  sim.Time // fault-injected extra switch delay
	ser    sim.Time // serialization time (dup offset, s&f re-serialization)
	dup    bool
	txFn   func() // sender link transmitter finished
	swFn   func() // store-and-forward: switch forwards onto the dst link
	fwdFn  func() // store-and-forward: dst link serialization finished
	dlvrFn func() // final delivery to the attachment handler

	// Multi-hop transit state (Config.Topo set): the source route and
	// the frame's progress along it, plus the topology-path
	// continuations (bound once, like the star-path ones above).
	hops   []topo.Hop
	hop    int
	ttxFn  func() // topology path: transmitter finished
	tarrFn func() // topology path: arrival at hops[hop]'s switch
}

// bindFns builds the frame's transit continuations (once per frame object;
// pooled frames keep them across recycling).
func (fr *Frame) bindFns() {
	fr.txFn = func() {
		f, sp, dp := fr.fab, fr.sport, fr.dport
		if fr.onTx != nil {
			fr.onTx()
		}
		if f.cfg.CutThrough {
			// Cut-through: the destination link streamed concurrently; the
			// last byte arrives one hop latency + propagation after it left
			// the source. (A crossing frame never gets here: Send handed
			// its delivery off already.)
			at := sp.eng.Now() + f.cfg.HopLatency + f.cfg.PropDelay + fr.delay
			f.handoff(&sp.box, sp.eng, dp.eng, at, "fabric.deliver", fr.dlvrFn)
			if fr.dup {
				f.handoff(&sp.box, sp.eng, dp.eng, at+fr.ser, "fabric.deliver", fr.dlvrFn)
			}
			return
		}
		// Store-and-forward: the switch re-serializes onto the destination
		// link (modeled with contention).
		at := sp.eng.Now() + f.cfg.HopLatency + fr.delay
		f.handoff(&sp.box, sp.eng, dp.eng, at, "fabric.switch", fr.swFn)
		if fr.dup {
			f.handoff(&sp.box, sp.eng, dp.eng, at, "fabric.switch", fr.swFn)
		}
	}
	fr.swFn = func() {
		fr.dport.down.Do(fr.ser, "fabric.fwd", fr.fwdFn)
	}
	fr.fwdFn = func() {
		fr.dport.eng.After(fr.fab.cfg.PropDelay, "fabric.deliver", fr.dlvrFn)
	}
	fr.dlvrFn = func() {
		fr.fab.deliver(fr.dport, fr)
	}
}

// releasable and retainable are implemented by pooled payloads
// (wire.Packet). The fabric releases a payload it swallows (drop, nil
// handler, corruption replacement) and retains one it fans out
// (duplication), keeping the reference count balanced without the fabric
// knowing the payload type.
type (
	releasable interface{ Release() }
	retainable interface{ Retain() }
)

func releasePayload(p any) {
	if r, ok := p.(releasable); ok {
		r.Release()
	}
}

func retainPayload(p any) {
	if r, ok := p.(retainable); ok {
		r.Retain()
	}
}

// Frame identity never reaches event order: frames are recycled only after
// their final delivery fires, and a recycled frame is fully re-initialized.
//
//lint:qpip-allow nogoroutine free list only; no synchronization semantics leak into the model
var framePool = sync.Pool{New: func() any { return new(Frame) }}

// NewFrame builds a frame drawn from a pool. Ownership passes to the fabric
// at Send; the fabric recycles the frame after its final delivery, so
// handlers must not retain it.
func NewFrame(src, dst, wireSize int, payload any) *Frame {
	fr := framePool.Get().(*Frame)
	*fr = Frame{
		Src: src, Dst: dst, WireSize: wireSize, Payload: payload, pooled: true,
		txFn: fr.txFn, swFn: fr.swFn, fwdFn: fr.fwdFn, dlvrFn: fr.dlvrFn,
		ttxFn: fr.ttxFn, tarrFn: fr.tarrFn,
	}
	return fr
}

// free recycles a pooled frame after its last delivery, keeping the bound
// continuations for the next transit.
func free(fr *Frame) {
	if !fr.pooled {
		return
	}
	txFn, swFn, fwdFn, dlvrFn := fr.txFn, fr.swFn, fr.fwdFn, fr.dlvrFn
	ttxFn, tarrFn := fr.ttxFn, fr.tarrFn
	*fr = Frame{txFn: txFn, swFn: swFn, fwdFn: fwdFn, dlvrFn: dlvrFn, ttxFn: ttxFn, tarrFn: tarrFn}
	framePool.Put(fr)
}

// Handler receives delivered frames at an attachment.
type Handler func(*Frame)

// FaultDecision is what the fault layer wants done with one frame. The
// zero value passes the frame through untouched.
type FaultDecision struct {
	// Drop loses the frame in transit; the sender still pays
	// serialization (the wire carried it to the point of loss).
	Drop bool
	// Replace, when non-nil, is delivered in place of the original frame
	// (a corrupted in-transit copy; same wire size).
	Replace *Frame
	// ExtraDelay postpones delivery (switch queueing jitter).
	ExtraDelay sim.Time
	// Duplicate delivers the frame a second time, one serialization time
	// after the first copy.
	Duplicate bool
}

// FaultHook decides the fate of each sent frame. n counts frames ever sent
// from this frame's source attachment (a per-source ordinal, so sharded and
// sequential runs agree on it), and now is the sending engine's clock.
type FaultHook func(f *Frame, n uint64, now sim.Time) FaultDecision

// mail is one cross-shard handoff buffered during an epoch: an event to
// inject into the destination shard's engine at the barrier.
type mail struct {
	eng  *sim.Engine
	at   sim.Time
	name string
	fn   func()
}

// outbox is one sender's cross-shard handoff buffer: an attachment, or a
// topofab switch egress. Every frame hop a sender hands to another engine
// passes through its outbox (handoff).
type outbox struct {
	name string // the sender, as the guard's panic names it
	// cross marks a sender that can reach another engine, fixed when the
	// fabric is built.
	cross bool
	// floor is the earliest arrival a handoff posted here may have in the
	// current epoch, published at the barrier (MailFloor).
	floor sim.Time
	// mail holds this epoch's handoffs in posting order, which is
	// time-ordered per sender.
	mail []mail
}

type port struct {
	id      int         // attachment id
	eng     *sim.Engine // the engine this attachment lives on
	up      *sim.Server // attachment -> switch
	down    *sim.Server // switch -> attachment
	handler Handler
	// floor, when set, bounds from below the time of the attachment's
	// next Send, given its engine's next event time (SetFloor).
	floor func(next sim.Time) sim.Time
	// box carries the attachment's hops that may cross engines: its
	// cut-through deliveries, store-and-forward switch hops, or hops onto
	// its topology switch.
	box outbox

	// Source-side counters (incremented from the attachment's engine) and
	// the destination-side delivered counter; Stats sums them.
	sent, dropped, delivered uint64
}

// Config describes a fabric.
type Config struct {
	Name string
	// Bandwidth in bytes/second per link direction.
	Bandwidth float64
	// MTU is the maximum network-layer packet the fabric accepts; 0 means
	// unlimited (Myrinet supports "arbitrary sized MTUs", paper §4.1).
	MTU int
	// LinkOverhead is added to every frame's wire size (headers, gaps).
	LinkOverhead int
	// CutThrough selects Myrinet-style forwarding: the switch adds only
	// HopLatency. Store-and-forward switches re-serialize the frame.
	CutThrough bool
	// HopLatency is the switch forwarding latency.
	HopLatency sim.Time
	// PropDelay is total cable propagation.
	PropDelay sim.Time
	// Topo, when non-nil, replaces the single-star fast path with
	// hop-by-hop forwarding over the switch graph (topofab.go).
	// Requires CutThrough.
	Topo *topo.Graph
}

// Fabric is a star-topology switched network.
type Fabric struct {
	eng   *sim.Engine
	cfg   Config
	ports []*port
	// boxes lists every outbox in canonical drain order: attachments
	// ascending, then switches ascending, each switch's egresses ascending.
	boxes []*outbox
	// Fault, when non-nil, is consulted for every sent frame — the
	// general fault-injection hook (see internal/fault for the seeded
	// deterministic implementation).
	Fault FaultHook

	// sws is the per-switch arbitration state for the multi-hop path,
	// built lazily once all attachments exist (topofab.go).
	sws []*swState
}

// New builds an empty fabric on eng.
func New(eng *sim.Engine, cfg Config) *Fabric {
	if cfg.Bandwidth <= 0 {
		panic("fabric: bandwidth must be positive")
	}
	if cfg.Topo != nil && !cfg.CutThrough {
		panic("fabric: topology routing is modeled for cut-through fabrics only")
	}
	return &Fabric{eng: eng, cfg: cfg}
}

// Attach adds an endpoint on the fabric's own engine and returns its
// attachment id.
func (f *Fabric) Attach(h Handler) int { return f.AttachOn(f.eng, h) }

// AttachOn adds an endpoint whose link servers and delivery events live on
// eng — the attaching node's shard engine. Sequential clusters pass the one
// shared engine; sharded clusters pass the node's shard engine so the
// port's entire datapath runs on its shard's clock.
func (f *Fabric) AttachOn(eng *sim.Engine, h Handler) int {
	if eng == nil {
		eng = f.eng
	}
	id := len(f.ports)
	p := &port{
		id:      id,
		eng:     eng,
		up:      sim.NewServer(eng, fmt.Sprintf("%s.port%d.up", f.cfg.Name, id)),
		down:    sim.NewServer(eng, fmt.Sprintf("%s.port%d.down", f.cfg.Name, id)),
		handler: h,
		box:     outbox{name: fmt.Sprintf("port %d", id)},
	}
	// Every star port reaches every other, so all of them cross once two
	// engines hold attachments. (A topology port's flag is its switch's,
	// set by initTopo.)
	if len(f.ports) > 0 && (f.ports[0].box.cross || f.ports[0].eng != eng) {
		for _, q := range f.ports {
			q.box.cross = true
		}
		p.box.cross = true
	}
	f.ports = append(f.ports, p)
	f.boxes = append(f.boxes, &p.box)
	return id
}

// DrainMailboxes injects every buffered cross-shard handoff into its
// destination engine and reports how many were injected. Called only at
// epoch barriers, with no shard running. The injection order is
// canonical — outboxes in f.boxes order, each in posting order — so
// destination-engine sequence numbers (the tie-breaker for same-timestamp
// events) are a deterministic function of the workload, never of the
// order the shards ran in.
//
//qpip:barrier
func (f *Fabric) DrainMailboxes() int {
	total := 0
	for _, box := range f.boxes {
		for i := range box.mail {
			m := &box.mail[i]
			m.eng.At(m.at, m.name, m.fn)
			m.fn = nil
		}
		total += len(box.mail)
		box.mail = box.mail[:0]
	}
	return total
}

// SetFloor gives attachment att an emission floor: floor(next) must be a
// lower bound on the time of the attachment's next Send, given that its
// engine fires nothing before next. It is called only at epoch barriers,
// with every shard parked. An attachment without a floor is bounded by
// next itself.
func (f *Fabric) SetFloor(att int, floor func(next sim.Time) sim.Time) {
	f.ports[att].floor = floor
}

// MailFloor publishes, for the epoch about to run, each outbox's mail
// floor: the earliest arrival time any cross-shard handoff it posts can
// have. next[i] is engines[i]'s next event time, negative when it has
// none; a sender on such an engine fires nothing and so posts nothing. It
// reports the minimum over outboxes, or false when no crossing outbox can
// post.
//
// A cut-through star port posts at Send, so its floor is the attachment's
// emission floor, held back by its busy up link, plus the smallest
// frame's serialization and the hop. A store-and-forward port posts when
// its transmitter finishes, and a topology port when its frame leaves for
// the first switch: events no earlier than next, one HopLatency short of
// the arrival. A switch egress posts when it grants, which is no earlier
// than the port frees, one link latency (lat) short of the arrival.
//
//qpip:barrier
func (f *Fabric) MailFloor(engines []*sim.Engine, next []sim.Time) (sim.Time, bool) {
	if f.cfg.Topo != nil {
		f.initTopo()
	}
	floor, ok := sim.Time(0), false
	// open resets box's floor and reports its engine's next event time,
	// and whether box can post at all this epoch.
	open := func(box *outbox, eng *sim.Engine) (sim.Time, bool) {
		box.floor = math.MaxInt64
		for i, e := range engines {
			if e == eng {
				return next[i], box.cross && next[i] >= 0
			}
		}
		return 0, false
	}
	publish := func(box *outbox, at sim.Time) {
		box.floor = at
		if !ok || at < floor {
			floor, ok = at, true
		}
	}
	minFrame := f.serTime(f.cfg.LinkOverhead)
	for _, p := range f.ports {
		t, live := open(&p.box, p.eng)
		switch {
		case !live:
		case f.cfg.Topo == nil && f.cfg.CutThrough:
			if p.floor != nil {
				t = p.floor(t)
			}
			publish(&p.box, max(t, p.up.BusyUntil())+minFrame+f.cfg.HopLatency+f.cfg.PropDelay)
		default:
			publish(&p.box, t+f.cfg.HopLatency)
		}
	}
	for _, sw := range f.sws {
		for _, op := range sw.ports {
			if t, live := open(&op.box, op.eng); live {
				publish(&op.box, max(t, op.busyUntil)+op.lat)
			}
		}
	}
	return floor, ok
}

// handoff schedules fn at time at on engine to, for a frame hop that box's
// sender fires on engine from. A hop that stays on its engine is
// scheduled directly. One that crosses is buffered in box until the
// barrier injects it (DrainMailboxes); arriving before box's published
// floor means the floor was not a lower bound, so the epoch it ran in was
// unsound, and handoff panics.
//
//qpip:hotpath
func (f *Fabric) handoff(box *outbox, from, to *sim.Engine, at sim.Time, name string, fn func()) {
	if to == from {
		from.At(at, name, fn)
		return
	}
	if at < box.floor {
		panic(fmt.Sprintf("fabric %s: %s posted a cross-shard handoff arriving at %dns, before its published mail floor %dns",
			f.cfg.Name, box.name, int64(at), int64(box.floor)))
	}
	box.mail = append(box.mail, mail{eng: to, at: at, name: name, fn: fn})
}

// serTime is the serialization time of size bytes at link rate.
func (f *Fabric) serTime(size int) sim.Time {
	return sim.Time(float64(size) * 1e9 / f.cfg.Bandwidth)
}

// Stats reports (sent, delivered, dropped) frame counts, summed over ports.
func (f *Fabric) Stats() (sent, delivered, dropped uint64) {
	for _, p := range f.ports {
		sent += p.sent
		delivered += p.delivered
		dropped += p.dropped
	}
	return sent, delivered, dropped
}

// Send injects a frame. onTxDone (may be nil) runs when the sender's link
// transmitter finishes serializing — the moment a NIC's transmit engine is
// free for the next frame. Delivery to the destination handler happens
// after switch forwarding and propagation.
func (f *Fabric) Send(frame *Frame, onTxDone func()) {
	if frame.Src < 0 || frame.Src >= len(f.ports) || frame.Dst < 0 || frame.Dst >= len(f.ports) {
		panic(fmt.Sprintf("fabric %s: bad attachment %d->%d", f.cfg.Name, frame.Src, frame.Dst))
	}
	netSize := frame.WireSize
	if f.cfg.MTU > 0 && netSize-f.cfg.LinkOverhead > f.cfg.MTU {
		panic(fmt.Sprintf("fabric %s: frame of %d bytes exceeds MTU %d — stacks must segment",
			f.cfg.Name, netSize-f.cfg.LinkOverhead, f.cfg.MTU))
	}
	src := f.ports[frame.Src]
	dst := f.ports[frame.Dst]
	n := src.sent
	src.sent++
	var fd FaultDecision
	if f.Fault != nil {
		fd = f.Fault(frame, n, src.eng.Now())
	}
	if fd.Drop {
		// The wire still carries the frame to the point of loss; charge
		// the sender's serialization but deliver nothing. The payload dies
		// here — nobody downstream will release it.
		src.dropped++
		src.up.Do(f.serTime(netSize), "fabric.tx.dropped", onTxDone)
		releasePayload(frame.Payload)
		free(frame)
		return
	}
	if fd.Replace != nil {
		// The corrupted clone (deep-copied headers) travels instead; the
		// original frame and its payload are consumed here.
		releasePayload(frame.Payload)
		free(frame)
		frame = fd.Replace
		frame.pooled = false
		// A struct-copied clone carries the original's bound continuations,
		// which capture the original (now freed) frame; rebind below.
		frame.txFn, frame.swFn, frame.fwdFn, frame.dlvrFn = nil, nil, nil, nil
		frame.ttxFn, frame.tarrFn = nil, nil
	}
	frame.deliveries = 1
	if fd.Duplicate {
		// Two deliveries share one payload; the extra reference balances
		// the second consumer's release.
		frame.deliveries = 2
		retainPayload(frame.Payload)
	}
	frame.fab = f
	frame.sport = src
	frame.dport = dst
	frame.onTx = onTxDone
	frame.delay = fd.ExtraDelay
	frame.ser = f.serTime(netSize)
	frame.dup = fd.Duplicate
	if f.cfg.Topo != nil {
		f.sendTopo(frame, src)
		return
	}
	if frame.txFn == nil {
		//lint:qpip-allow hotprop continuations are bound once per pooled frame and survive recycling; steady-state sends reuse them
		frame.bindFns()
	}
	if f.cfg.CutThrough && dst.eng != src.eng {
		// A crossing cut-through delivery is handed off now, not at
		// transmit completion: the up link's FIFO already fixes when the
		// last byte leaves, so the port's mail floor need not count the
		// frames on its wire (MailFloor). The transmit event carries only
		// onTxDone; from here the frame belongs to the destination shard.
		// A delivery within one engine keeps the transmit-completion
		// schedule, whose order among same-tick events the sequential
		// runs are pinned to.
		at := src.up.Do(frame.ser, "fabric.tx", onTxDone) + f.cfg.HopLatency + f.cfg.PropDelay + frame.delay
		f.handoff(&src.box, src.eng, dst.eng, at, "fabric.deliver", frame.dlvrFn)
		if frame.dup {
			f.handoff(&src.box, src.eng, dst.eng, at+frame.ser, "fabric.deliver", frame.dlvrFn)
		}
		return
	}
	src.up.Do(frame.ser, "fabric.tx", frame.txFn)
}

func (f *Fabric) deliver(p *port, frame *Frame) {
	p.delivered++
	if p.handler != nil {
		p.handler(frame)
	} else {
		releasePayload(frame.Payload)
	}
	frame.deliveries--
	if frame.deliveries <= 0 {
		free(frame)
	}
}

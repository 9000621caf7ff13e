// Package hw models the host-adapter hardware path of the paper's testbed:
// the shared 64-bit/33 MHz PCI bus with its DMA engines, the LANai's
// doorbell FIFO ("writes to a region of PCI address space are stored in a
// FIFO in the interface SRAM", paper §4.1), and interrupt delivery with
// coalescing for the conventional adapters.
package hw

import (
	"fmt"

	"repro/internal/pool"
	"repro/internal/sim"
)

// PCIBus is the shared I/O bus. Every DMA transfer and programmed-I/O
// write serializes through it, so concurrent DMA engines contend here —
// the physical reality that bounded the prototype's large-MTU throughput.
type PCIBus struct {
	bus       *sim.Server
	bandwidth float64 // bytes/sec
	setup     sim.Time
	pioWrite  sim.Time
}

// NewPCIBus returns a bus with the given burst bandwidth, per-transfer DMA
// setup cost and programmed-I/O write latency.
func NewPCIBus(eng *sim.Engine, name string, bandwidth float64, setup, pioWrite sim.Time) *PCIBus {
	if bandwidth <= 0 {
		panic("hw: PCI bandwidth must be positive")
	}
	return &PCIBus{
		bus:       sim.NewServer(eng, name),
		bandwidth: bandwidth,
		setup:     setup,
		pioWrite:  pioWrite,
	}
}

// DMA moves n bytes across the bus and runs done at completion. Direction
// does not matter for occupancy: PCI is half duplex.
func (p *PCIBus) DMA(n int, what string, done func()) {
	if n < 0 {
		panic(fmt.Sprintf("hw: negative DMA length %d", n))
	}
	d := p.setup + sim.Time(float64(n)*1e9/p.bandwidth)
	p.bus.Do(d, what, done)
}

// Burst moves n bytes with no per-transfer setup charge — the issuing
// firmware stage's fixed cost already covers descriptor programming.
func (p *PCIBus) Burst(n int, what string, done func()) {
	p.BurstAt(n, p.bandwidth, what, done)
}

// BurstAt moves n bytes at the initiating DMA engine's effective rate
// (capped by the bus) and returns the burst's completion time. The bus is
// held for the whole burst: a slow master occupies the bus at its own
// pace, as PCI works.
func (p *PCIBus) BurstAt(n int, rate float64, what string, done func()) sim.Time {
	if n < 0 {
		panic(fmt.Sprintf("hw: negative DMA length %d", n))
	}
	if rate <= 0 || rate > p.bandwidth {
		rate = p.bandwidth
	}
	return p.bus.Do(sim.Time(float64(n)*1e9/rate), what, done)
}

// PIOWrite performs one posted programmed-I/O write (a doorbell ring).
func (p *PCIBus) PIOWrite(what string, done func()) {
	p.bus.Do(p.pioWrite, what, done)
}

// Doorbell is the adapter's hardware doorbell FIFO. Host-side PIO writes
// enqueue tokens; the firmware's doorbell FSM drains them. A full FIFO
// drops the ring — the driver layer must size queues to prevent that, and
// OnDrop lets the owner count such bugs.
type Doorbell struct {
	fifo     pool.Ring[uint64] // bounded by capacity
	capacity int
	// OnRing, when set, is invoked (in simulation context) whenever a
	// token lands in an empty FIFO — the firmware's wakeup edge.
	OnRing func()
	// OnDrop, when set, is invoked for every ring lost to a full FIFO,
	// letting the owning adapter surface backpressure in its counters.
	OnDrop func()
}

// NewDoorbell returns a FIFO of the given capacity.
func NewDoorbell(capacity int) *Doorbell {
	if capacity <= 0 {
		panic("hw: doorbell capacity must be positive")
	}
	return &Doorbell{capacity: capacity}
}

// Ring enqueues a token (already across the bus). It reports false and
// calls OnDrop when the FIFO is full.
func (d *Doorbell) Ring(token uint64) bool {
	if d.Len() >= d.capacity {
		if d.OnDrop != nil {
			d.OnDrop()
		}
		return false
	}
	wasEmpty := d.Len() == 0
	d.fifo.Push(token)
	if wasEmpty && d.OnRing != nil {
		d.OnRing()
	}
	return true
}

// PopN drains up to len(dst) tokens into dst in FIFO order and reports
// how many it moved — the firmware's vectored ring-drain.
func (d *Doorbell) PopN(dst []uint64) int { return d.fifo.PopN(dst) }

// Len reports queued tokens.
func (d *Doorbell) Len() int { return d.fifo.Len() }

// IRQLine delivers interrupts to a host CPU with interrupt throttling.
// It is adapter-agnostic: the conventional NICs (Pro1000, Myrinet) pace
// their rx-ring interrupts through it, and the QPIP NIC routes CQ
// completion events through one line per CQ. An idle line interrupts
// immediately (no added latency for a lone event — what Figure 3's RTTs
// see), while under load interrupts are paced at CoalesceDelay intervals
// or CoalescePkts events, whichever comes first, dividing the
// per-interrupt cost across events (what Figure 4's utilization sees).
// CoalesceDelay is the pacing knob the `-exp irq` ablation sweeps.
type IRQLine struct {
	eng *sim.Engine
	// ISR is the host's interrupt service routine; it receives the number
	// of events being acknowledged.
	ISR func(events int)
	// CoalescePkts of 0 or 1 disables count-based coalescing.
	CoalescePkts  int
	CoalesceDelay sim.Time

	pending  int
	timer    *sim.Event
	lastFire sim.Time // valid once fired > 0
	fired    uint64
	events   uint64
	// timerFn is the coalesce-timer callback, bound when the throttle is
	// first armed, so arming it again on the hot receive path does not
	// allocate and a line that never throttles (every line with zero
	// CoalesceDelay) never binds it.
	timerFn func()
}

// NewIRQLine returns a line bound to eng.
func NewIRQLine(eng *sim.Engine, isr func(events int)) *IRQLine {
	return &IRQLine{eng: eng, ISR: isr}
}

// onTimer is the coalesce timer's expiry.
func (l *IRQLine) onTimer() {
	l.timer = nil
	if l.pending > 0 {
		l.fire()
	}
}

// SetCoalesce reconfigures the pacing knobs. pkts < 1 disables
// count-based coalescing; delay 0 makes every Raise fire immediately.
func (l *IRQLine) SetCoalesce(pkts int, delay sim.Time) {
	l.CoalescePkts = pkts
	l.CoalesceDelay = delay
}

// Pending reports events raised but not yet delivered to the ISR.
func (l *IRQLine) Pending() int { return l.pending }

// Raise records one event, possibly triggering the ISR now or arming the
// throttle timer.
func (l *IRQLine) Raise() {
	l.pending++
	l.events++
	threshold := l.CoalescePkts
	if threshold < 1 {
		threshold = 1
	}
	if l.pending >= threshold || l.CoalesceDelay == 0 {
		l.fire()
		return
	}
	now := l.eng.Now()
	if l.fired > 0 && now-l.lastFire >= l.CoalesceDelay {
		// Line has been idle past the throttle interval: no added latency.
		l.fire()
		return
	}
	if l.timer == nil {
		wait := l.CoalesceDelay
		if l.fired > 0 {
			wait = l.lastFire + l.CoalesceDelay - now
		}
		if l.timerFn == nil {
			l.timerFn = l.onTimer
		}
		l.timer = l.eng.After(wait, "irq.coalesce", l.timerFn)
	}
}

func (l *IRQLine) fire() {
	if l.timer != nil {
		l.timer.Cancel()
		l.timer = nil
	}
	n := l.pending
	l.pending = 0
	l.fired++
	l.lastFire = l.eng.Now()
	if l.ISR != nil {
		l.ISR(n)
	}
}

// Fired reports delivered interrupts; Events reports raised events. Their
// ratio is the achieved coalescing factor.
func (l *IRQLine) Fired() uint64 { return l.fired }

// Events reports the total number of Raise calls.
func (l *IRQLine) Events() uint64 { return l.events }

package hostos

import (
	"repro/internal/hw"
	"repro/internal/params"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/wire"
)

// RxCoalescer is the unified receive-interrupt model of the host side:
// arriving packets queue in the host rx ring, an hw.IRQLine paces their
// delivery, and the ISR charges one interrupt entry plus the per-packet
// reap cost before handing the whole batch to the kernel. Both
// conventional adapters (gige, gm) deliver through it, and the QPIP CQ
// event path runs on the same hw.IRQLine model — one coalescing
// abstraction across all three stacks.
type RxCoalescer struct {
	k       *Kernel
	isrName string
	line    *hw.IRQLine

	// rxQ is the host rx ring. An interrupt charges the packets queued
	// since the previous one and records their count in batches; the CPU
	// completes ISR charges in order, so the one pre-bound reapFn pops the
	// oldest count and reaps that many packets from the ring's head. A
	// count per interrupt (not one swapped buffer) because a second
	// interrupt can be charged before the first batch's completion runs.
	rxQ     pool.Ring[*wire.Packet]
	charged int // packets in rxQ already counted into batches
	batches pool.Ring[int]
	reapFn  func()
}

// NewRxCoalescer builds a coalescer delivering to k; the ISR charge is
// the "<name>.isr" event on the kernel's CPU.
func NewRxCoalescer(k *Kernel, name string, pkts int, delay sim.Time) *RxCoalescer {
	c := &RxCoalescer{k: k, isrName: name + ".isr"}
	c.reapFn = c.reap
	c.line = hw.NewIRQLine(k.Engine(), c.isr)
	c.line.SetCoalesce(pkts, delay)
	return c
}

// Enqueue queues one received packet (already DMA'd into host memory)
// and raises the interrupt line.
//
//qpip:hotpath
func (c *RxCoalescer) Enqueue(pkt *wire.Packet) {
	c.rxQ.Push(pkt)
	c.line.Raise()
}

// Line exposes the underlying IRQ line — the pacing knob and the
// Fired/Events coalescing-factor counters.
func (c *RxCoalescer) Line() *hw.IRQLine { return c.line }

// isr charges one interrupt: entry/exit once plus the descriptor reap per
// packet queued since the last interrupt; reap runs when the charge
// completes.
//
//qpip:hotpath
func (c *RxCoalescer) isr(events int) {
	n := c.rxQ.Len() - c.charged
	c.charged += n
	c.batches.Push(n)
	cost := params.US(params.HostIRQUS + params.HostDriverRxReapUS*float64(n))
	c.k.CPU().Do(cost, c.isrName, c.reapFn)
}

// reap hands the oldest charged batch to protocol processing via
// DeliverPacket.
//
//qpip:hotpath
func (c *RxCoalescer) reap() {
	n, _ := c.batches.Pop()
	c.charged -= n
	for ; n > 0; n-- {
		pkt, _ := c.rxQ.Pop()
		c.k.DeliverPacket(pkt)
	}
}

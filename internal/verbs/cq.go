package verbs

import (
	"repro/internal/hw"
	"repro/internal/params"
	"repro/internal/pool"
	"repro/internal/sim"
)

// CQ is a completion queue, resident in host memory. The adapter appends
// tokens by DMA; applications detect them "through polling or an event"
// (paper §2.1). Polling spins in the processor cache (paper §5.1), so an
// empty poll is nearly free while a successful poll pays the reap cost.
type CQ struct {
	dev      Device
	depth    int
	entries  pool.Ring[Completion] // bounded by depth
	waiter   sim.Waiter
	overflow uint64
	// irq is the CQ's event line, which the device binds at AttachCQ: a
	// Push that finds a parked waiter raises the line, and the device's
	// ISR performs the wake. With a coalescing delay of 0 the
	// Raise→fire→wake path is synchronous, so the wake lands at the
	// instant of the Push.
	irq *hw.IRQLine
	// overflowPending arms the synthetic StatusCQOverflow completion the
	// application reaps after draining what survived — overflow is an
	// application sizing bug, and this is how it is surfaced instead of
	// silently losing completions.
	overflowPending bool
	maxLen          int
}

// NewCQ creates a completion queue of the given depth on dev.
func NewCQ(dev Device, depth int) *CQ {
	if depth <= 0 {
		depth = 256
	}
	c := &CQ{dev: dev, depth: depth}
	dev.AttachCQ(c)
	return c
}

// BindEvent routes this CQ's completion wakeups through line, the one
// wake path: every Device binds a line in AttachCQ, with an ISR that
// calls EventWake. QPIP completion notification so shares the coalescing
// model of the conventional adapters' rx interrupts.
func (c *CQ) BindEvent(line *hw.IRQLine) { c.irq = line }

// EventLine reports the bound event line — benchmarks read its
// Fired/Events counters to measure the achieved coalescing factor.
func (c *CQ) EventLine() *hw.IRQLine { return c.irq }

// EventWake wakes a blocked waiter, if armed. Called from the device's
// event-line ISR in simulation context.
func (c *CQ) EventWake() { c.waiter.Wake() }

// Depth reports the CQ capacity.
func (c *CQ) Depth() int { return c.depth }

// Len reports queued completions.
func (c *CQ) Len() int { return c.entries.Len() }

// Overflows reports completions dropped because the CQ was full — always a
// sizing bug in the application, never silent.
func (c *CQ) Overflows() uint64 { return c.overflow }

// MaxLen reports the high-water mark of queued completions; the DESIGN §8
// invariant is MaxLen() <= Depth().
func (c *CQ) MaxLen() int { return c.maxLen }

// Push appends a completion. Called by the Device in simulation context
// (the adapter's DMA of the token has already been charged). It wakes a
// waiting process. A push onto a full CQ never grows it past its depth:
// the completion is lost, counted, and a pending synthetic
// StatusCQOverflow completion is armed so the application observes the
// loss when it next drains the queue.
//
//qpip:hotpath
func (c *CQ) Push(comp Completion) {
	if c.Len() >= c.depth {
		c.overflow++
		c.overflowPending = true
		return
	}
	c.entries.Push(comp)
	if c.Len() > c.maxLen {
		c.maxLen = c.Len()
	}
	if c.waiter.Parked() {
		// Armed-waiter semantics (as in Infiniband's req_notify_cq): the
		// event line is raised only when someone is waiting, so pure
		// polling workloads never pay interrupt costs.
		c.irq.Raise()
	}
}

// Poll attempts to reap one completion, charging the host CPU for the
// attempt. It is the QPIP analog of a non-blocking select() (paper §3).
//
//qpip:hotpath
func (c *CQ) Poll(p *sim.Proc) (Completion, bool) {
	if c.Len() == 0 {
		if c.overflowPending {
			c.overflowPending = false
			p.Use(c.dev.HostCPU().Server, params.US(params.VerbsPollUS))
			return Completion{Status: StatusCQOverflow}, true
		}
		p.Use(c.dev.HostCPU().Server, params.US(params.VerbsPollEmptyUS))
		return Completion{}, false
	}
	p.Use(c.dev.HostCPU().Server, params.US(params.VerbsPollUS))
	return c.entries.Pop()
}

// PollN reaps up to len(out) completions in order with a single batched
// CPU charge: the first completion pays the full poll cost, each further
// one only the marginal reap cost. Semantics match a loop of single
// Polls exactly — same ordering, and the synthetic StatusCQOverflow
// completion surfaces only once the queue has drained. Returns the number
// of completions written to out.
//
//qpip:hotpath
func (c *CQ) PollN(p *sim.Proc, out []Completion) int {
	if len(out) == 0 {
		return 0
	}
	n := c.entries.PopN(out)
	if n < len(out) && c.overflowPending {
		c.overflowPending = false
		out[n] = Completion{Status: StatusCQOverflow}
		n++
	}
	if n == 0 {
		p.Use(c.dev.HostCPU().Server, params.US(params.VerbsPollEmptyUS))
		return 0
	}
	p.Use(c.dev.HostCPU().Server,
		params.US(params.VerbsPollUS+float64(n-1)*params.VerbsPollBatchUS))
	return n
}

// Wait blocks the process until a completion is available and reaps it.
// The wakeup models the prototype's "lightweight interrupt service
// routine to process events" (paper §4.1): the ISR cost lands on the host
// CPU before the process resumes.
func (c *CQ) Wait(p *sim.Proc) Completion {
	for {
		if comp, ok := c.Poll(p); ok {
			return comp
		}
		c.waiter.Park(p)
		p.Suspend()
		// Interrupt-driven wakeup: the lightweight ISR runs before the
		// process reaps.
		p.Use(c.dev.HostCPU().Server, params.US(params.VerbsWakeupUS))
	}
}

package nbd

import (
	"errors"
	"fmt"

	"repro/internal/buf"
	"repro/internal/params"
	"repro/internal/sim"
)

// transport is the client driver's view of its connection to the server.
type transport interface {
	// sendRequest issues one request (plus write payload); it may block
	// the calling process on transport flow control.
	sendRequest(p *sim.Proc, req Request, data buf.Buf) error
}

// op is one outstanding block request.
type op struct {
	handle uint64
	offset int64
	length int
	isRead bool
	done   bool
	errno  uint32
	data   buf.Buf
	waiter sim.Waiter
	// wdata retains a write's payload so a recovering transport can
	// replay the request idempotently after reconnect (DESIGN §13).
	wdata buf.Buf
	// sess is the transport session the request was last sent on; a
	// recovering transport resends ops whose sess predates the current
	// session.
	sess uint64
}

// core implements storage.BlockDev semantics over any transport: request
// issue, reply matching, sequential readahead and write-behind with a
// bounded queue — the Linux block layer behaviour the benchmark depends
// on for pipelining.
type core struct {
	cpu  *sim.CPU
	t    transport
	size int64

	nextHandle uint64
	inflight   map[uint64]*op
	readAt     map[int64]*op // outstanding/completed readahead by offset

	qd            int
	lastReadEnd   int64
	reads, writes uint64
	readaheads    uint64
	// completes counts matched replies; a recovery watchdog reads it as
	// the liveness signal (no growth + nonempty inflight = dead session).
	completes uint64

	outWrites   int
	writeWaiter sim.Waiter
	flushWaiter sim.Waiter

	failed error
}

func newCore(cpu *sim.CPU, size int64, qd int) *core {
	if qd <= 0 {
		qd = params.NBDQueueDepth
	}
	return &core{
		cpu:         cpu,
		size:        size,
		qd:          qd,
		inflight:    make(map[uint64]*op),
		readAt:      make(map[int64]*op),
		lastReadEnd: -1,
	}
}

// driverCost charges the client block-layer cost for one request.
func (c *core) driverCost(p *sim.Proc) {
	p.Use(c.cpu.Server, params.US(ClientPerReqUS))
}

var errServerError = errors.New("nbd: server returned error")

// issueRead sends one read request.
func (c *core) issueRead(p *sim.Proc, off int64, n int) (*op, error) {
	c.nextHandle++
	o := &op{handle: c.nextHandle, offset: off, length: n, isRead: true}
	c.inflight[o.handle] = o
	c.readAt[off] = o
	c.reads++
	err := c.t.sendRequest(p, Request{
		Type: CmdRead, Handle: o.handle, Offset: uint64(off), Length: uint32(n),
	}, buf.Empty)
	if err != nil {
		delete(c.inflight, o.handle)
		delete(c.readAt, off)
		return nil, err
	}
	return o, nil
}

// outstandingReads counts inflight read ops.
func (c *core) outstandingReads() int {
	n := 0
	for _, o := range c.inflight {
		if o.isRead {
			n++
		}
	}
	return n
}

// Read implements storage.BlockDev with sequential readahead: when the
// access pattern is sequential, up to the queue depth of future requests
// are kept in flight.
func (c *core) Read(p *sim.Proc, off int64, n int) (buf.Buf, error) {
	if c.failed != nil {
		return buf.Empty, c.failed
	}
	c.driverCost(p)
	o := c.readAt[off]
	if o != nil && o.length != n {
		o = nil // readahead guessed a different size; issue fresh
	}
	if o == nil {
		var err error
		o, err = c.issueRead(p, off, n)
		if err != nil {
			return buf.Empty, err
		}
	}
	// Sequential detection and readahead.
	sequential := off == c.lastReadEnd || c.lastReadEnd == -1
	c.lastReadEnd = off + int64(n)
	if sequential {
		next := off + int64(n)
		for c.outstandingReads() < c.qd && next+int64(n) <= c.size {
			if _, already := c.readAt[next]; already {
				next += int64(n)
				continue
			}
			if _, err := c.issueRead(p, next, n); err != nil {
				break
			}
			c.readaheads++
			next += int64(n)
		}
	}
	for !o.done {
		o.waiter.Park(p)
		p.Suspend()
	}
	delete(c.readAt, o.offset)
	if o.errno != 0 {
		return buf.Empty, fmt.Errorf("%w (%d)", errServerError, o.errno)
	}
	return o.data, nil
}

// Write implements storage.BlockDev with write-behind: up to qd writes
// may be outstanding; Flush drains them.
func (c *core) Write(p *sim.Proc, off int64, b buf.Buf) error {
	if c.failed != nil {
		return c.failed
	}
	c.driverCost(p)
	for c.outWrites >= c.qd {
		c.writeWaiter.Park(p)
		p.Suspend()
		if c.failed != nil {
			return c.failed
		}
	}
	c.nextHandle++
	o := &op{handle: c.nextHandle, offset: off, length: b.Len(), wdata: b}
	c.inflight[o.handle] = o
	c.outWrites++
	c.writes++
	return c.t.sendRequest(p, Request{
		Type: CmdWrite, Handle: o.handle, Offset: uint64(off), Length: uint32(b.Len()),
	}, b)
}

// Flush implements storage.BlockDev: wait for all outstanding writes.
func (c *core) Flush(p *sim.Proc) error {
	for c.outWrites > 0 && c.failed == nil {
		c.flushWaiter.Park(p)
		p.Suspend()
	}
	return c.failed
}

// complete matches a reply to its request (transport reader context).
func (c *core) complete(handle uint64, errno uint32, data buf.Buf) {
	o := c.inflight[handle]
	if o == nil {
		return // stale reply
	}
	c.completes++
	delete(c.inflight, handle)
	o.done = true
	o.errno = errno
	o.data = data
	if o.isRead {
		o.waiter.Wake()
		return
	}
	c.outWrites--
	c.writeWaiter.Wake()
	if c.outWrites == 0 {
		c.flushWaiter.Wake()
	}
}

// fail poisons the device (connection loss) and wakes everyone.
func (c *core) fail(err error) {
	if c.failed != nil {
		return
	}
	c.failed = err
	// Wake waiters in handle (issue) order, not map order: each Wake runs
	// the woken process until it parks again, so the wake sequence is
	// observable simulation behaviour and must replay identically.
	handles := make([]uint64, 0, len(c.inflight))
	for h := range c.inflight {
		handles = append(handles, h)
	}
	sortUint64s(handles)
	for _, h := range handles {
		o := c.inflight[h]
		o.done = true
		o.errno = 5 // EIO
		o.waiter.Wake()
	}
	c.inflight = make(map[uint64]*op)
	c.readAt = make(map[int64]*op)
	c.outWrites = 0
	c.writeWaiter.Wake()
	c.flushWaiter.Wake()
}

// Stats reports (reads, writes, readaheads).
func (c *core) Stats() (reads, writes, readaheads uint64) {
	return c.reads, c.writes, c.readaheads
}

func sortUint64s(a []uint64) {
	// Insertion sort is fine: inflight is bounded by the queue depth.
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

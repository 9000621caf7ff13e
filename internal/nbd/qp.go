package nbd

import (
	"fmt"

	"repro/internal/buf"
	"repro/internal/params"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/verbs"
)

// The QPIP transport (paper Figure 6): the NBD driver posts whole
// messages to a reliable QP instead of making socket calls. A request is
// one message; bulk data follows as additional messages of up to the QP's
// maximum message size (one message = one TCP segment, so chunks are
// MTU-bound). "Integrating the QP interface into NBD was straightforward
// and proved simpler than the socket implementation" (§4.2.3).

// qpChunks reports how many data messages carry n bytes.
func qpChunks(n, maxMsg int) int {
	if n == 0 {
		return 0
	}
	return (n + maxMsg - 1) / maxMsg
}

// qpEndpoint is the shared send machinery: credit-tracked message sends
// with chunking.
type qpEndpoint struct {
	qp      *verbs.QP
	sendCQ  *verbs.CQ
	recvCQ  *verbs.CQ
	maxMsg  int
	credits int
	depth   int
	nextID  uint64
}

func newEndpoint(qp *verbs.QP, sendCQ, recvCQ *verbs.CQ, maxMsg, sendDepth int) *qpEndpoint {
	return &qpEndpoint{qp: qp, sendCQ: sendCQ, recvCQ: recvCQ, maxMsg: maxMsg,
		credits: sendDepth, depth: sendDepth}
}

// reapSends drains available send completions without blocking.
func (e *qpEndpoint) reapSends(p *sim.Proc) error {
	for {
		comp, ok := e.sendCQ.Poll(p)
		if !ok {
			return nil
		}
		if comp.Status != verbs.StatusSuccess {
			return fmt.Errorf("nbd: send completion %v", comp.Status)
		}
		e.credits++
	}
}

// sendMsg posts one message, blocking on send credits.
func (e *qpEndpoint) sendMsg(p *sim.Proc, payload buf.Buf) error {
	if err := e.reapSends(p); err != nil {
		return err
	}
	for e.credits <= 0 {
		comp := e.sendCQ.Wait(p)
		if comp.Status != verbs.StatusSuccess {
			return fmt.Errorf("nbd: send completion %v", comp.Status)
		}
		e.credits++
	}
	e.credits--
	e.nextID++
	return e.qp.PostSend(p, verbs.SendWR{ID: e.nextID, Payload: payload})
}

// sendChunked sends data as a run of maxMsg-bounded messages.
func (e *qpEndpoint) sendChunked(p *sim.Proc, data buf.Buf) error {
	for off := 0; off < data.Len(); off += e.maxMsg {
		end := off + e.maxMsg
		if end > data.Len() {
			end = data.Len()
		}
		if err := e.sendMsg(p, data.Slice(off, end)); err != nil {
			return err
		}
	}
	return nil
}

// repostRecv returns one receive buffer to the QP.
func (e *qpEndpoint) repostRecv(p *sim.Proc, id uint64) error {
	return e.qp.PostRecv(p, verbs.RecvWR{ID: id, Capacity: e.maxMsg})
}

// fillRecvs posts the receive buffers for one session: enough for qd+1
// full read replies (header plus data chunks each).
func (e *qpEndpoint) fillRecvs(p *sim.Proc, qd int) error {
	nBufs := (qd + 1) * (1 + qpChunks(params.NBDRequestBytes, e.maxMsg))
	for i := 0; i < nBufs; i++ {
		if err := e.repostRecv(p, uint64(i)); err != nil {
			return err
		}
	}
	return nil
}

// QPClient is the QPIP NBD client driver.
type QPClient struct {
	*core
	ep *qpEndpoint
	// rec, when set, enables session-level recovery (recovery.go): on
	// connection failure the reader reconnects the QP and replays
	// in-flight requests instead of poisoning the device.
	rec      *RecoverySpec
	sess     uint64
	replays  uint64
	wdWaiter sim.Waiter // watchdog parked while nothing is in flight
}

// Replays reports how many in-flight requests session recovery resent.
func (c *QPClient) Replays() uint64 { return c.replays }

// Sessions reports the number of transport sessions used (1 = fault-free).
func (c *QPClient) Sessions() uint64 { return c.sess }

// NewQPClient wires a driver to an established reliable QP. sendCQ and
// recvCQ must be the CQs the QP was created with. The reader process is
// spawned on p's engine; initial receive WRs are posted by it. A non-nil
// rec enables session recovery (recovery.go): on connection failure the
// reader reconnects under rec.Backoff and replays in-flight requests
// instead of poisoning the device, and a watchdog enforces rec.Timeout.
// Only reconnect exhaustion (verbs.ErrRemoteDown) is then terminal.
func NewQPClient(p *sim.Proc, cpu *sim.CPU, qp *verbs.QP, sendCQ, recvCQ *verbs.CQ,
	maxMsg int, size int64, qd int, rec *RecoverySpec) *QPClient {
	c := &QPClient{
		core: newCore(cpu, size, qd),
		ep:   newEndpoint(qp, sendCQ, recvCQ, maxMsg, 128),
		sess: 1,
	}
	c.core.t = c
	eng := p.Engine()
	eng.Spawn("nbd.qp.reader", c.run)
	if rec != nil {
		spec := *rec
		if spec.Timeout <= 0 {
			spec.Timeout = 500 * sim.Millisecond
		}
		c.rec = &spec
		eng.Spawn("nbd.qp.watchdog", c.watchdog)
	}
	return c
}

// sendRequest implements transport. With recovery enabled, transport
// errors are swallowed: the op is already recorded in the in-flight map
// with a stale session number, so the reader's replay after reconnect
// delivers it (the error here proves the session broke, which the reader
// observes independently through its flushed completions).
func (c *QPClient) sendRequest(p *sim.Proc, req Request, data buf.Buf) error {
	if o := c.inflight[req.Handle]; o != nil {
		o.sess = c.sess
	}
	c.wdWaiter.Wake()
	err := c.sendAll(p, req, data)
	if err != nil && c.rec != nil {
		return nil
	}
	return err
}

// sendAll posts the request header and any write payload chunks.
func (c *QPClient) sendAll(p *sim.Proc, req Request, data buf.Buf) error {
	if err := c.ep.sendMsg(p, buf.Bytes(MarshalRequest(&req))); err != nil {
		return err
	}
	if data.Len() > 0 {
		return c.ep.sendChunked(p, data)
	}
	return nil
}

// run is the reader process: one session in the fault-free case, a
// session/reestablish loop under recovery.
func (c *QPClient) run(p *sim.Proc) {
	if err := c.ep.fillRecvs(p, c.qd); err != nil {
		c.fail(err)
		return
	}
	for {
		err := c.session(p)
		if c.rec == nil {
			c.fail(err)
			return
		}
		if err := c.recover(p); err != nil {
			c.fail(err)
			return
		}
	}
}

// session reassembles in-order reply messages — a header message,
// followed (for successful reads) by the data chunks — until the
// connection breaks.
func (c *QPClient) session(p *sim.Proc) error {
	for {
		comp := c.ep.recvCQ.Wait(p)
		if comp.Status != verbs.StatusSuccess {
			return fmt.Errorf("nbd: recv completion %v", comp.Status)
		}
		rep, err := ParseReply(comp.Payload)
		if err != nil {
			return err
		}
		if err := c.ep.repostRecv(p, comp.WRID); err != nil {
			return err
		}
		var data buf.Buf
		if o := c.inflight[rep.Handle]; o != nil && o.isRead && rep.Error == 0 {
			var parts []buf.Buf
			need := qpChunks(o.length, c.ep.maxMsg)
			for i := 0; i < need; i++ {
				dc := c.ep.recvCQ.Wait(p)
				if dc.Status != verbs.StatusSuccess {
					return fmt.Errorf("nbd: data completion %v", dc.Status)
				}
				parts = append(parts, dc.Payload)
				if err := c.ep.repostRecv(p, dc.WRID); err != nil {
					return err
				}
			}
			data = buf.Concat(parts...)
		}
		c.complete(rep.Handle, rep.Error, data)
	}
}

// ServeQP runs the QPIP NBD server loop on an established QP until the
// peer closes. Requests arrive as in-order messages; replies go back the
// same way.
func ServeQP(p *sim.Proc, cpu *sim.CPU, qp *verbs.QP, sendCQ, recvCQ *verbs.CQ,
	maxMsg int, disk *storage.Disk) {
	ep := newEndpoint(qp, sendCQ, recvCQ, maxMsg, 128)
	if ep.fillRecvs(p, params.NBDQueueDepth) != nil {
		return
	}
	serveQPSession(p, cpu, ep, &storage.LocalDev{D: disk})
}

// serveQPSession serves requests on an established QP until the peer
// disconnects. It reports true on a clean CmdDisc, false when the
// connection broke — the resilient server recycles on false.
func serveQPSession(p *sim.Proc, cpu *sim.CPU, ep *qpEndpoint, dev *storage.LocalDev) bool {
	recvMsg := func() (buf.Buf, bool) {
		comp := ep.recvCQ.Wait(p)
		if comp.Status != verbs.StatusSuccess {
			return buf.Empty, false
		}
		if ep.repostRecv(p, comp.WRID) != nil {
			return buf.Empty, false
		}
		return comp.Payload, true
	}
	for {
		hdr, ok := recvMsg()
		if !ok {
			return false
		}
		req, err := ParseRequest(hdr)
		if err != nil {
			return false
		}
		p.Use(cpu.Server, params.US(ServerPerReqUS))
		switch req.Type {
		case CmdRead:
			data, _ := dev.Read(p, int64(req.Offset), int(req.Length))
			if ep.sendMsg(p, buf.Bytes(MarshalReply(&Reply{Handle: req.Handle}))) != nil {
				return false
			}
			if ep.sendChunked(p, data) != nil {
				return false
			}
		case CmdWrite:
			var parts []buf.Buf
			for i := 0; i < qpChunks(int(req.Length), ep.maxMsg); i++ {
				chunk, ok := recvMsg()
				if !ok {
					return false
				}
				parts = append(parts, chunk)
			}
			if dev.Write(p, int64(req.Offset), buf.Concat(parts...)) != nil {
				return false
			}
			if ep.sendMsg(p, buf.Bytes(MarshalReply(&Reply{Handle: req.Handle}))) != nil {
				return false
			}
		case CmdDisc:
			return true
		default:
			if ep.sendMsg(p, buf.Bytes(MarshalReply(&Reply{Handle: req.Handle, Error: 22}))) != nil {
				return false
			}
		}
	}
}

package nbd

import (
	"errors"

	"repro/internal/buf"
	"repro/internal/inet"
	"repro/internal/params"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/verbs"
)

// Session-level failure recovery for the QPIP NBD transport (DESIGN §13).
// The verbs layer gives the driver crash detection (QP error states, epoch
// fencing) and reconnection (QP.Reconnect); this file adds what only the
// protocol layer can: exactly-once block semantics across reconnects.
//
// The scheme leans on two properties. First, every outstanding request is
// already tracked in core.inflight with its full argument set — the write
// payload is retained in op.wdata — so the reader can resend anything the
// old session may have lost. Second, block requests are idempotent:
// re-writing the same bytes at the same offset, or re-reading, converges
// to the same device state, so "at least once per session, completed at
// most once" (core.complete drops stale handles) yields exactly-once
// semantics observable by the application.

// RecoverySpec configures session-level recovery for a QP NBD client
// (NewQPClient): where to reconnect, and how patiently.
type RecoverySpec struct {
	Raddr   inet.Addr6
	Rport   uint16
	Backoff verbs.BackoffPolicy
	// Timeout declares an established-but-silent session dead: if
	// requests are in flight and no reply completes for this long, the
	// watchdog fails the QP and recovery reconnects. This is the only
	// defense against silent reply loss — a crashed peer whose TCB died
	// holding our fully-ACKed request will never retransmit the reply,
	// and the requester's TCP has no timer armed to notice. Must exceed
	// the transport's retransmission timeout or a single lost frame
	// would look like a dead peer (default 500ms vs tcp.MinRTO 200ms).
	Timeout sim.Time
}

// errSessionStalled is the watchdog's verdict on a silent session.
var errSessionStalled = errors.New("nbd: session stalled, no completions within timeout")

// watchdog enforces RecoverySpec.Timeout. It parks while nothing is in
// flight (sendRequest wakes it) and otherwise samples the completion
// counter once per timeout window; a window with in-flight requests, an
// established QP, and zero completions fails the QP, whose flush wakes
// the reader into recovery. Sampling runs on the simulated clock only,
// so two runs of a seed observe identical verdicts.
func (c *QPClient) watchdog(p *sim.Proc) {
	for c.failed == nil {
		if len(c.inflight) == 0 {
			c.wdWaiter = p
			p.Suspend()
			continue
		}
		seen := c.completes
		p.Sleep(c.rec.Timeout)
		if len(c.inflight) > 0 && c.completes == seen && c.ep.qp.State() == verbs.QPRTS {
			c.ep.qp.SetFailed(errSessionStalled, verbs.StatusFlushed)
		}
	}
}

// recover reestablishes a broken session: reconnect, quiesce the old
// session's flushed completions, then replay every request the old
// session still owed. Reconnect comes first deliberately — the device's
// ResetQP completes consumed-but-unacked sends synchronously, so the
// quiesce that follows cannot hang waiting on firmware-held WRs. If the
// new session breaks during recovery itself, the whole sequence retries
// (each pass burns a fresh reconnect budget); only verbs.ErrRemoteDown is
// returned, and it is terminal.
func (c *QPClient) recover(p *sim.Proc) error {
	for {
		if err := c.ep.qp.Reconnect(p, c.rec.Raddr, c.rec.Rport, c.rec.Backoff); err != nil {
			return err
		}
		quiesceQP(p, c.ep.qp, c.ep.sendCQ, c.ep.recvCQ)
		c.ep.credits = c.ep.depth
		// Bump the session before replaying: ops resent below are stamped
		// with the new session, so if this session also dies, the next
		// pass bumps again and still sees them as stale.
		c.sess++
		// Receives must be posted before replay — posted receive capacity
		// is the TCP window, and replies to replayed requests need it.
		if err := c.ep.fillRecvs(p, c.qd); err != nil {
			continue
		}
		if err := c.replay(p); err != nil {
			continue
		}
		return nil
	}
}

// replay resends every in-flight request whose last send predates the
// current session, in handle (issue) order so the resend sequence is
// deterministic. Ops are stamped with the new session before sending:
// a mid-replay failure leaves them stale relative to the next session,
// so nothing is lost, and the idempotent request semantics make the
// duplicate delivery harmless.
func (c *QPClient) replay(p *sim.Proc) error {
	handles := make([]uint64, 0, len(c.inflight))
	for h, o := range c.inflight {
		if o.sess != c.sess {
			handles = append(handles, h)
		}
	}
	sortUint64s(handles)
	for _, h := range handles {
		o := c.inflight[h]
		o.sess = c.sess
		c.replays++
		req := Request{Handle: o.handle, Offset: uint64(o.offset), Length: uint32(o.length)}
		data := buf.Empty
		if o.isRead {
			req.Type = CmdRead
		} else {
			req.Type = CmdWrite
			data = o.wdata
		}
		if err := c.ep.sendMsgPolled(p, buf.Bytes(MarshalRequest(&req))); err != nil {
			return err
		}
		for off := 0; off < data.Len(); off += c.ep.maxMsg {
			end := off + c.ep.maxMsg
			if end > data.Len() {
				end = data.Len()
			}
			if err := c.ep.sendMsgPolled(p, data.Slice(off, end)); err != nil {
				return err
			}
		}
	}
	return nil
}

// sendMsgPolled posts one message, acquiring a send credit by
// poll-and-sleep rather than CQ.Wait: the CQ has a single waiter slot,
// and during replay it may already belong to an application process
// parked on credits — arming it from the reader would strand that
// process. A flushed completion (session died again) surfaces as an
// error from reapSends.
func (e *qpEndpoint) sendMsgPolled(p *sim.Proc, payload buf.Buf) error {
	for {
		if err := e.reapSends(p); err != nil {
			return err
		}
		if e.credits > 0 {
			break
		}
		p.Sleep(params.US(10))
	}
	e.credits--
	e.nextID++
	return e.qp.PostSend(p, verbs.SendWR{ID: e.nextID, Payload: payload})
}

// quiesceQP drains both CQs of the dead session's completions until the
// QP owes nothing: no outstanding WRs and no queued tokens. The 100µs
// sleep paces the no-progress polls while straggler flushes land.
func quiesceQP(p *sim.Proc, qp *verbs.QP, scq, rcq *verbs.CQ) {
	for {
		progress := false
		for {
			if _, ok := scq.Poll(p); !ok {
				break
			}
			progress = true
		}
		for {
			if _, ok := rcq.Poll(p); !ok {
				break
			}
			progress = true
		}
		if qp.OutstandingSend() == 0 && qp.OutstandingRecv() == 0 &&
			scq.Len() == 0 && rcq.Len() == 0 {
			return
		}
		if !progress {
			p.Sleep(params.US(100))
		}
	}
}

// ServeQPResilient is the recoverable server loop: serve a session,
// and when it dies — client crash, adapter reboot, partition — recycle
// the QP back onto the listener and accept the client's reconnect.
// Returns only on a clean client disconnect (CmdDisc).
//
// The listener itself needs care across local adapter crashes: a crash
// wipes the NIC's port table, so Listen is retried every cycle, with
// verbs.ErrPortBusy meaning "the previous listener survived — reuse it".
func ServeQPResilient(p *sim.Proc, cpu *sim.CPU, dev verbs.Device, port uint16,
	qp *verbs.QP, sendCQ, recvCQ *verbs.CQ, maxMsg int, disk *storage.Disk,
	pol verbs.BackoffPolicy) {
	ep := newEndpoint(qp, sendCQ, recvCQ, maxMsg, 128)
	ldev := &storage.LocalDev{D: disk}
	var lst *verbs.Listener
	attempt := 0
	backoff := func() {
		attempt++
		p.Sleep(pol.Delay(attempt))
	}
	for {
		l, err := dev.Listen(port)
		switch {
		case err == nil:
			lst = l
		case errors.Is(err, verbs.ErrPortBusy) && lst != nil:
			// Previous listener still installed on the adapter.
		default:
			// Adapter down (mid-reboot) or port held elsewhere: wait it out.
			backoff()
			continue
		}
		if qp.State() != verbs.QPReset {
			if err := qp.ModifyQP(p, verbs.QPReset); err != nil {
				backoff()
				continue
			}
		}
		quiesceQP(p, qp, sendCQ, recvCQ)
		ep.credits = ep.depth
		// Park on the listener before posting receives: Post is cheap (no
		// yield), so an arriving SYN always finds an idle QP; the receive
		// window then grows as each posted WR reaches the adapter.
		if lst.Post(qp) != nil {
			backoff()
			continue
		}
		if ep.fillRecvs(p, params.NBDQueueDepth) != nil {
			backoff()
			continue
		}
		if qp.WaitEstablished(p) != nil {
			// Crashed or fenced while parked; recycle.
			continue
		}
		attempt = 0
		if serveQPSession(p, cpu, ep, ldev) {
			return
		}
	}
}

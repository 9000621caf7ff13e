package verbs

import (
	"fmt"

	"repro/internal/inet"
	"repro/internal/params"
	"repro/internal/pool"
	"repro/internal/sim"
)

// QP is a queue pair: "the logical endpoint of a communication link ...
// a send and a receive queue of work requests" (paper §2.1). The queues
// live in host memory; the adapter consumes WRs via DMA after doorbell
// notifications and posts completions to the bound CQs. The receive queue
// is a pool (SRQ): the QP's own one-member pool, or a shared one.
type QP struct {
	Transport TransportType
	SendCQ    *CQ
	RecvCQ    *CQ

	dev   Device
	state QPState
	err   error
	// The send WR queue, bounded by sendDepth and reserved at it on the
	// first post.
	sendQ     pool.Ring[SendWR]
	sendDepth int
	outSend   int // posted send WRs not yet completed
	outRecv   int // receive WRs claimed by the adapter, not yet completed
	// rq is the pool arriving messages claim from: the QP's own
	// one-member pool (rq.owner == the QP), allocated only for a QP
	// created without QPConfig.SRQ, or that shared SRQ.
	rq     *SRQ
	est    sim.Waiter // parked in WaitEstablished
	sqd    sim.Waiter // parked in WaitSQDrained
	parked *Listener  // listener this QP is idling on, if any

	// Connection identity, filled during connect/accept/bind. QPN and
	// the ports sit together, which keeps a QP in a 176-byte size class.
	RemoteAddr inet.Addr6
	QPN        uint32
	LocalPort  uint16
	RemotePort uint16
}

// QPConfig sizes a queue pair.
type QPConfig struct {
	Transport TransportType
	SendCQ    *CQ
	RecvCQ    *CQ
	// SendDepth / RecvDepth bound outstanding WRs (default 128).
	SendDepth, RecvDepth int
	// SRQ attaches the QP to a shared receive queue at create time in
	// place of its own pool: per-QP receive posting is refused
	// (ErrSRQAttached), and arriving messages claim from the shared pool
	// in device-wide FIFO order. RecvDepth is ignored. The SRQ must be a
	// shared pool created on the QP's device (ErrForeignSRQ otherwise).
	SRQ *SRQ
}

// NewQP creates a queue pair and registers it with the device. QPNs come
// from the device (Device.AllocQPN), never from package state: a
// process-wide counter would make one cluster's numbering depend on every
// other cluster the process built before it, or is building beside it in
// a parallel sweep.
func NewQP(dev Device, cfg QPConfig) (*QP, error) {
	if cfg.SendCQ == nil || cfg.RecvCQ == nil {
		return nil, fmt.Errorf("verbs: QP requires send and receive CQs")
	}
	if s := cfg.SRQ; s != nil && (s.dev != dev || s.owner != nil) {
		return nil, ErrForeignSRQ
	}
	if cfg.SendDepth <= 0 {
		cfg.SendDepth = 128
	}
	if cfg.RecvDepth <= 0 {
		cfg.RecvDepth = 128
	}
	qp := &QP{
		QPN:       dev.AllocQPN(),
		Transport: cfg.Transport,
		SendCQ:    cfg.SendCQ,
		RecvCQ:    cfg.RecvCQ,
		dev:       dev,
		sendDepth: cfg.SendDepth,
		rq:        cfg.SRQ,
	}
	if qp.rq == nil {
		qp.rq = &SRQ{dev: dev, depth: cfg.RecvDepth, owner: qp}
	}
	if err := dev.CreateQP(qp); err != nil {
		return nil, err
	}
	qp.rq.attached++
	return qp, nil
}

// SRQ reports the receive pool the QP draws from: its own one-member pool
// (Owner() == q), or the shared SRQ it was created on.
func (q *QP) SRQ() *SRQ { return q.rq }

// SendDepth reports the most send WRs the QP lets be outstanding.
func (q *QP) SendDepth() int { return q.sendDepth }

// State reports the QP lifecycle state.
func (q *QP) State() QPState { return q.state }

// Err reports the error that moved the QP to QPError, if any.
func (q *QP) Err() error { return q.err }

// PostSend posts one send work request: a batch of one. "The posting
// method adds the WR to the appropriate queue and notifies the adapter of
// a pending operation" (paper §2.1).
//
//qpip:hotpath
func (q *QP) PostSend(p *sim.Proc, wr SendWR) error {
	_, err := q.PostSendN(p, []SendWR{wr})
	return err
}

// PostSendN posts up to len(wrs) send work requests with one batched CPU
// charge (first WR at full cost, the rest at the marginal batch cost;
// calibrated against paper Table 1's 2.5 us host overhead for send+receive
// of a 1-byte message) and a single doorbell carrying the WR count. It
// returns how many WRs were posted; on a partial post (queue full or
// oversized WR mid-batch) the prefix that fits is posted and the error
// reported, with nothing charged when the count is zero.
//
//qpip:hotpath
func (q *QP) PostSendN(p *sim.Proc, wrs []SendWR) (int, error) {
	if len(wrs) == 0 {
		return 0, nil
	}
	if q.state != QPEstablished && !(q.Transport == Unreliable && q.state != QPError && q.state != QPClosed && q.state != QPSQD) {
		if q.state == QPError {
			return 0, q.err
		}
		if q.state == QPSQD {
			return 0, ErrSQDraining
		}
		return 0, ErrBadState
	}
	n := 0
	var err error
	for _, wr := range wrs {
		if q.outSend+n >= q.sendDepth {
			err = ErrQueueFull
			break
		}
		if wr.Payload.Len() > q.dev.MaxMessage() {
			//lint:qpip-allow hotprop rejected-WR error path, cold by construction
			err = fmt.Errorf("%w: %d > %d", ErrTooBig, wr.Payload.Len(), q.dev.MaxMessage())
			break
		}
		n++
	}
	if n == 0 {
		return 0, err
	}
	p.Use(q.dev.HostCPU().Server,
		params.US(params.VerbsPostSendUS+float64(n-1)*params.VerbsPostSendBatchUS))
	q.sendQ.Reserve(q.sendDepth)
	for _, wr := range wrs[:n] {
		q.outSend++
		q.sendQ.Push(wr)
	}
	q.dev.SendDoorbell(q, n)
	return n, err
}

// PostRecv posts one receive work request to the QP's own pool: a batch
// of one.
//
//qpip:hotpath
func (q *QP) PostRecv(p *sim.Proc, wr RecvWR) error {
	_, err := q.PostRecvN(p, []RecvWR{wr})
	return err
}

// PostRecvN posts up to len(wrs) receive work requests to the QP's own
// pool (SRQ.PostRecvN: one batched CPU charge for exactly the accepted
// prefix, one notification write). A QP attached to a shared pool refuses
// with ErrSRQAttached; post to the SRQ instead.
//
//qpip:hotpath
func (q *QP) PostRecvN(p *sim.Proc, wrs []RecvWR) (int, error) {
	if q.rq.owner != q {
		return 0, ErrSRQAttached
	}
	return q.rq.PostRecvN(p, wrs)
}

// Connect initiates the TCP rendezvous to a remote listener and blocks
// until established or failed. The handshake runs entirely in the
// interface; "the host [is] only notified when the connection is
// established" (paper §3).
func (q *QP) Connect(p *sim.Proc, raddr inet.Addr6, rport uint16) error {
	if q.Transport != Reliable {
		return ErrNotSupported
	}
	// The adapter's rendezvous performs the INIT→RTR→RTS transitions
	// internally (paper §3), so Connect accepts RESET or INIT.
	if q.state != QPReset && q.state != QPInit {
		return ErrBadState
	}
	q.state = QPConnecting
	if err := q.dev.Connect(q, raddr, rport); err != nil {
		q.state = QPError
		q.err = err
		return err
	}
	return q.WaitEstablished(p)
}

// WaitEstablished parks until the QP leaves QPConnecting.
func (q *QP) WaitEstablished(p *sim.Proc) error {
	for q.state == QPConnecting {
		q.est.Park(p)
		p.Suspend()
	}
	if q.state != QPEstablished {
		if q.err != nil {
			return q.err
		}
		return ErrBadState
	}
	return nil
}

// BindUDP binds an unreliable QP to a local UDP port (0 = ephemeral).
func (q *QP) BindUDP(port uint16) (uint16, error) {
	if q.Transport != Unreliable {
		return 0, ErrNotSupported
	}
	got, err := q.dev.BindUDP(q, port)
	if err != nil {
		return 0, err
	}
	q.LocalPort = got
	q.state = QPEstablished
	return got, nil
}

// Close tears the QP down, flushing outstanding WRs with StatusFlushed.
func (q *QP) Close() {
	if q.state == QPClosed {
		return
	}
	q.unpark()
	q.dev.DestroyQP(q)
	q.state = QPClosed
	q.rq.attached--
}

// unpark removes the QP from any listener it idles on.
func (q *QP) unpark() {
	if q.parked != nil {
		q.parked.unpark(q)
		q.parked = nil
	}
}

// ---- Adapter-side interface (used by Device implementations). ----

// TakeSendWR consumes the oldest posted send WR (the firmware's Get WR
// stage has been charged by the caller).
//
//qpip:hotpath
func (q *QP) TakeSendWR() (SendWR, bool) { return q.sendQ.Pop() }

// TakeRecvWR claims the oldest WR of the QP's pool, in pool-wide FIFO
// order. The claimed WR is owned by this QP from here to completion, so
// the claim is what makes it outstanding on the QP.
//
//qpip:hotpath
func (q *QP) TakeRecvWR() (RecvWR, bool) {
	wr, ok := q.rq.take()
	if ok {
		q.outRecv++
	}
	return wr, ok
}

// PostedRecvBytes reports the unclaimed capacity of the QP's pool; the
// firmware advertises it as the TCP receive window.
//
//qpip:hotpath
func (q *QP) PostedRecvBytes() int { return q.rq.postedBytes }

// CompleteSend posts a send completion (adapter context).
//
//qpip:hotpath
func (q *QP) CompleteSend(wrID uint64, status Status, n int) {
	q.outSend--
	q.SendCQ.Push(Completion{QPN: q.QPN, WRID: wrID, Op: OpSend, Status: status, ByteLen: n})
	if q.outSend == 0 {
		q.sqd.Wake()
	}
}

// CompleteRecv posts a receive completion (adapter context).
//
//qpip:hotpath
func (q *QP) CompleteRecv(comp Completion) {
	q.outRecv--
	comp.QPN = q.QPN
	comp.Op = OpRecv
	q.RecvCQ.Push(comp)
}

// SetEstablished marks the QP connected and wakes a waiting process.
func (q *QP) SetEstablished(local, remote uint16, raddr inet.Addr6) {
	q.LocalPort, q.RemotePort, q.RemoteAddr = local, remote, raddr
	q.state = QPEstablished
	q.est.Wake()
}

// SetFailed fails the QP, flushing posted-but-unconsumed WRs with the
// given terminal status (StatusRetryExceeded for retry exhaustion,
// StatusFlushed otherwise). Idempotent once the QP left the live states.
func (q *QP) SetFailed(err error, status Status) {
	if q.state == QPError || q.state == QPClosed {
		return
	}
	q.unpark()
	q.state = QPError
	q.err = err
	q.FlushWith(status)
	q.est.Wake()
	q.sqd.Wake()
}

// Flush completes all posted-but-unconsumed WRs with StatusFlushed.
func (q *QP) Flush() { q.FlushWith(StatusFlushed) }

// FlushWith completes all posted-but-unconsumed WRs with status.
//
// Flush ordering is deterministic and part of the verbs contract (DESIGN
// §13): consumed-but-unacked sends complete first (the device flushes
// those before calling here), then posted-but-unconsumed sends, then
// posted receives — each group in post order. The chaos tests pin this
// ordering; two runs of the same seed must reap identical completion
// sequences through Poll and PollN alike.
func (q *QP) FlushWith(status Status) {
	for wr, ok := q.sendQ.Pop(); ok; wr, ok = q.sendQ.Pop() {
		q.outSend--
		q.SendCQ.Push(Completion{QPN: q.QPN, WRID: wr.ID, Op: OpSend, Status: status})
	}
	q.sendQ.Reset()
	// The QP's own pool flushes with it; a shared pool's unclaimed WRs
	// stay for its other members. Claimed-but-uncompleted WRs are flushed
	// by the device like consumed sends.
	if own := q.rq; own.owner == q {
		for wr, ok := own.q.Pop(); ok; wr, ok = own.q.Pop() {
			q.RecvCQ.Push(Completion{QPN: q.QPN, WRID: wr.ID, Op: OpRecv, Status: status})
		}
		own.q.Reset()
		own.postedBytes = 0
	}
	if q.outSend == 0 {
		q.sqd.Wake()
	}
}

// OutstandingSend reports posted send WRs not yet completed — the
// recovery layer's quiesce loops poll this to know when every completion
// (including in-flight firmware flushes) has been pushed.
func (q *QP) OutstandingSend() int { return q.outSend }

// OutstandingRecv reports receive WRs not yet completed: those claimed by
// the adapter plus those still posted to the QP's own pool.
func (q *QP) OutstandingRecv() int {
	if q.rq.owner == q {
		return q.outRecv + q.rq.q.Len()
	}
	return q.outRecv
}

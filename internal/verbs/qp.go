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
// notifications and posts completions to the bound CQs.
type QP struct {
	QPN       uint32
	Transport TransportType
	SendCQ    *CQ
	RecvCQ    *CQ

	dev   Device
	state QPState
	err   error
	// The WR queues; sendDepth and recvDepth bound them.
	sendQ      pool.Ring[SendWR]
	recvQ      pool.Ring[RecvWR]
	sendDepth  int
	recvDepth  int
	outSend    int // posted send WRs not yet completed
	outRecv    int
	postedRecv int // bytes of receive capacity not yet consumed
	// srq, when set, replaces the private recvQ: receives are posted to
	// the shared pool and claimed from it in device-wide FIFO order.
	srq       *SRQ
	estWaiter *sim.Proc
	sqdWaiter *sim.Proc // parked in WaitSQDrained
	parked    *Listener // listener this QP is idling on, if any

	// Connection identity, filled during connect/accept/bind.
	LocalPort  uint16
	RemoteAddr inet.Addr6
	RemotePort uint16

	posts, recvPosts uint64
}

// QPConfig sizes a queue pair.
type QPConfig struct {
	Transport TransportType
	SendCQ    *CQ
	RecvCQ    *CQ
	// SendDepth / RecvDepth bound outstanding WRs (default 128).
	SendDepth, RecvDepth int
	// SRQ attaches the QP to a shared receive queue at create time: the
	// QP has no private recvQ, per-QP receive posting is refused
	// (ErrSRQAttached), and arriving messages claim from the shared pool
	// in device-wide FIFO order. RecvDepth is ignored.
	SRQ *SRQ
}

// NewQP creates a queue pair and registers it with the device. QPNs come
// from the device (Device.AllocQPN), never from package state: a sharded
// simulation creates QPs on different shard engines concurrently, and a
// process-wide counter would make numbering an artifact of thread timing.
func NewQP(dev Device, cfg QPConfig) (*QP, error) {
	if cfg.SendCQ == nil || cfg.RecvCQ == nil {
		return nil, fmt.Errorf("verbs: QP requires send and receive CQs")
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
		recvDepth: cfg.RecvDepth,
		srq:       cfg.SRQ,
	}
	if err := dev.CreateQP(qp); err != nil {
		return nil, err
	}
	if qp.srq != nil {
		qp.srq.attached++
	}
	return qp, nil
}

// SRQ reports the shared receive queue the QP draws from, if any.
func (q *QP) SRQ() *SRQ { return q.srq }

// State reports the QP lifecycle state.
func (q *QP) State() QPState { return q.state }

// Err reports the error that moved the QP to QPError, if any.
func (q *QP) Err() error { return q.err }

// PostSend posts a send work request and rings the doorbell. "The posting
// method adds the WR to the appropriate queue and notifies the adapter of
// a pending operation" (paper §2.1).
//
//qpip:hotpath
func (q *QP) PostSend(p *sim.Proc, wr SendWR) error {
	if q.state != QPEstablished && !(q.Transport == Unreliable && q.state != QPError && q.state != QPClosed && q.state != QPSQD) {
		if q.state == QPError {
			return q.err
		}
		if q.state == QPSQD {
			return ErrSQDraining
		}
		return ErrBadState
	}
	if q.outSend >= q.sendDepth {
		return ErrQueueFull
	}
	if wr.Payload.Len() > q.dev.MaxMessage() {
		//lint:qpip-allow hotalloc rejected-WR error path, cold by construction
		return fmt.Errorf("%w: %d > %d", ErrTooBig, wr.Payload.Len(), q.dev.MaxMessage())
	}
	// Build the WR in the host-resident queue, then one uncached doorbell
	// write. Calibrated against paper Table 1 (2.5 us total host overhead
	// for send+receive of a 1-byte message).
	p.Use(q.dev.HostCPU().Server, params.US(params.VerbsPostSendUS))
	q.outSend++
	q.posts++
	q.sendQ.Push(wr)
	q.dev.SendDoorbell(q)
	return nil
}

// PostSendN posts up to len(wrs) send work requests with one batched CPU
// charge (first WR at full cost, the rest at the marginal batch cost)
// and a single vectored doorbell. It returns how many WRs were posted;
// on a partial post (queue full or oversized WR mid-batch) the prefix
// that fits is posted and the error reported, with nothing charged when
// the count is zero.
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
			//lint:qpip-allow hotalloc rejected-WR error path, cold by construction
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
	for _, wr := range wrs[:n] {
		q.outSend++
		q.posts++
		q.sendQ.Push(wr)
	}
	q.dev.SendDoorbellN(q, n)
	return n, err
}

// PostRecv posts a receive work request identifying buffer capacity for
// one incoming message. Posting receive space grows the connection's TCP
// receive window (paper §5.1).
//
//qpip:hotpath
func (q *QP) PostRecv(p *sim.Proc, wr RecvWR) error {
	if q.srq != nil {
		return ErrSRQAttached
	}
	if q.state == QPError {
		return q.err
	}
	if q.state == QPClosed {
		return ErrBadState
	}
	if q.outRecv >= q.recvDepth {
		return ErrQueueFull
	}
	if wr.Capacity <= 0 {
		//lint:qpip-allow hotalloc rejected-WR error path, cold by construction
		return fmt.Errorf("verbs: receive WR needs positive capacity")
	}
	p.Use(q.dev.HostCPU().Server, params.US(params.VerbsPostRecvUS))
	q.outRecv++
	q.recvPosts++
	q.postedRecv += wr.Capacity
	q.recvQ.Push(wr)
	q.dev.RecvPosted(q)
	return nil
}

// PostRecvN posts up to len(wrs) receive work requests with one batched
// CPU charge and a single notification write. Partial-post semantics
// mirror PostSendN: the accepted prefix is validated first, and
// the CPU charge covers exactly that prefix — a batch cut short when the
// recv FIFO fills mid-batch (or by an invalid WR) must not bill the host
// for descriptors it never built. qp_test pins the exact charges.
//
//qpip:hotpath
func (q *QP) PostRecvN(p *sim.Proc, wrs []RecvWR) (int, error) {
	if len(wrs) == 0 {
		return 0, nil
	}
	if q.srq != nil {
		return 0, ErrSRQAttached
	}
	if q.state == QPError {
		return 0, q.err
	}
	if q.state == QPClosed {
		return 0, ErrBadState
	}
	// Validate before charging: n is the accepted prefix.
	n := 0
	var err error
	for _, wr := range wrs {
		if q.outRecv+n >= q.recvDepth {
			err = ErrQueueFull
			break
		}
		if wr.Capacity <= 0 {
			//lint:qpip-allow hotalloc rejected-WR error path, cold by construction
			err = fmt.Errorf("verbs: receive WR needs positive capacity")
			break
		}
		n++
	}
	if n == 0 {
		return 0, err
	}
	p.Use(q.dev.HostCPU().Server,
		params.US(params.VerbsPostRecvUS+float64(n-1)*params.VerbsPostRecvBatchUS))
	for _, wr := range wrs[:n] {
		q.outRecv++
		q.recvPosts++
		q.postedRecv += wr.Capacity
		q.recvQ.Push(wr)
	}
	q.dev.RecvPostedN(q, n)
	return n, err
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
		q.estWaiter = p
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
	if q.srq != nil {
		q.srq.attached--
	}
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

// TakeRecvWR consumes the oldest posted receive WR. For an SRQ-attached
// QP the claim resolves through the shared pool in device-wide FIFO
// order; the claimed WR is owned by this QP from here to completion, so
// the claim is what makes it outstanding on the QP.
//
//qpip:hotpath
func (q *QP) TakeRecvWR() (RecvWR, bool) {
	if q.srq != nil {
		wr, ok := q.srq.take()
		if ok {
			q.outRecv++
			q.recvPosts++
		}
		return wr, ok
	}
	wr, ok := q.recvQ.Pop()
	q.postedRecv -= wr.Capacity
	return wr, ok
}

// PendingSendWRs reports posted-but-unconsumed send WRs.
func (q *QP) PendingSendWRs() int { return q.sendQ.Len() }

// PostedRecvBytes reports unconsumed receive capacity; the firmware
// advertises it as the TCP receive window. An SRQ-attached QP advertises
// the shared pool's capacity.
//
//qpip:hotpath
func (q *QP) PostedRecvBytes() int {
	if q.srq != nil {
		return q.srq.PostedBytes()
	}
	return q.postedRecv
}

// CompleteSend posts a send completion (adapter context).
//
//qpip:hotpath
func (q *QP) CompleteSend(wrID uint64, status Status, n int) {
	q.outSend--
	q.SendCQ.Push(Completion{QPN: q.QPN, WRID: wrID, Op: OpSend, Status: status, ByteLen: n})
	if q.sqdWaiter != nil && q.outSend == 0 {
		q.wakeSQD()
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
	q.wakeEst()
}

// SetError fails the QP and flushes outstanding WRs with StatusFlushed.
func (q *QP) SetError(err error) { q.SetFailed(err, StatusFlushed) }

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
	q.wakeEst()
	q.wakeSQD()
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
	// An SRQ-attached QP owns no posted-but-unclaimed receive buffers:
	// unclaimed WRs stay in the shared pool for other attached QPs, so
	// there is nothing to error per-QP here and recvQ is empty by
	// construction. Claimed-but-uncompleted WRs are flushed by the device
	// like consumed sends.
	for wr, ok := q.recvQ.Pop(); ok; wr, ok = q.recvQ.Pop() {
		q.outRecv--
		q.RecvCQ.Push(Completion{QPN: q.QPN, WRID: wr.ID, Op: OpRecv, Status: status})
	}
	q.recvQ.Reset()
	q.postedRecv = 0
	if q.sqdWaiter != nil && q.outSend == 0 {
		q.wakeSQD()
	}
}

func (q *QP) wakeEst() {
	if q.estWaiter != nil {
		w := q.estWaiter
		q.estWaiter = nil
		w.Wake()
	}
}

func (q *QP) wakeSQD() {
	if q.sqdWaiter != nil {
		w := q.sqdWaiter
		q.sqdWaiter = nil
		w.Wake()
	}
}

// OutstandingSend reports posted send WRs not yet completed — the
// recovery layer's quiesce loops poll this to know when every completion
// (including in-flight firmware flushes) has been pushed.
func (q *QP) OutstandingSend() int { return q.outSend }

// OutstandingRecv reports posted receive WRs not yet completed.
func (q *QP) OutstandingRecv() int { return q.outRecv }

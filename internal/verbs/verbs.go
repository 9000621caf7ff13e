// Package verbs implements the Queue Pair communication abstraction QPIP
// adopts from the Infiniband specification (paper §2.1, §3): Queue Pairs
// holding send and receive queues of Work Requests, Completion Queues,
// and the library methods PostSend, PostRecv, Poll and Wait (paper §4.1).
//
// QP and CQ structures are resident in host memory and are read and
// written by the NIC through DMA; the host library's only interactions
// with the adapter are doorbell writes across the PCI bus and (for Wait)
// a lightweight interrupt. The host-side CPU costs of each method are the
// quantities paper Table 1 reports.
package verbs

import (
	"errors"
	"fmt"

	"repro/internal/buf"
	"repro/internal/inet"
	"repro/internal/sim"
)

// TransportType selects the inter-network transport beneath a QP.
type TransportType int

const (
	// Reliable runs over TCP: connected, acknowledged, in-order
	// (Infiniband RC analog).
	Reliable TransportType = iota
	// Unreliable runs over UDP: connectionless best-effort datagrams
	// (Infiniband UD analog).
	Unreliable
)

func (t TransportType) String() string {
	if t == Reliable {
		return "RC/TCP"
	}
	return "UD/UDP"
}

// QPState is the queue pair lifecycle state.
type QPState int

// QP states, following the Infiniband modify-QP model:
// RESET→INIT→RTR→RTS with SQD and ERR excursions (fsm.go holds the full
// transition table). Because QPIP's rendezvous runs inside the adapter,
// the INIT→RTR and RTR→RTS edges are driven by the device (Connect,
// Listener mating, SetEstablished) rather than by ModifyQP.
const (
	// QPReset is a fresh or recycled QP: no connection, no adapter-side
	// WR state. ModifyQP(QPReset) from the error state is the reconnect
	// primitive.
	QPReset QPState = iota
	// QPInit is registered and ready for receive posting but not yet
	// addressed (kept for Infiniband API fidelity; Connect and
	// Listener.Post accept QPs in either QPReset or QPInit).
	QPInit
	// QPRTR: ready to receive — the TCP rendezvous is in flight
	// (connecting, or parked on a listener awaiting a SYN).
	QPRTR
	// QPRTS: ready to send — the connection is established.
	QPRTS
	// QPSQD: send-queue drain — new PostSends are refused with
	// ErrSQDraining while already-posted sends complete normally.
	QPSQD
	// QPError: the QP failed; outstanding WRs have flushed (see
	// QP.FlushWith for the deterministic flush ordering).
	QPError
	// QPClosed: destroyed via Close.
	QPClosed
)

// Compatibility aliases from the pre-state-machine API: consumers of the
// rendezvous mostly observe "connecting" (RTR) and "established" (RTS).
const (
	QPConnecting  = QPRTR
	QPEstablished = QPRTS
)

func (s QPState) String() string {
	switch s {
	case QPReset:
		return "RESET"
	case QPInit:
		return "INIT"
	case QPRTR:
		return "RTR"
	case QPRTS:
		return "RTS"
	case QPSQD:
		return "SQD"
	case QPError:
		return "ERR"
	case QPClosed:
		return "CLOSED"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Op distinguishes completion types.
type Op int

// Completion operations.
const (
	OpSend Op = iota
	OpRecv
	// Collective operations (coll.go): posted through a CollQ, executed
	// by the adapter's collective engine, completed on the bound CQ.
	OpBarrier
	OpBcast
	OpAllreduce
	OpReduceScatter
)

// Status is a completion status.
type Status int

// Completion statuses.
const (
	StatusSuccess Status = iota
	// StatusFlushed marks WRs drained when a QP failed or closed.
	StatusFlushed
	// StatusLenError marks a receive whose WR buffer was too small for
	// the arriving message.
	StatusLenError
	// StatusRemoteError marks a send aborted by connection failure.
	StatusRemoteError
	// StatusRetryExceeded marks a WR terminated because TCP
	// retransmission exhausted its retry budget — the peer is
	// unreachable. The QP has transitioned to QPError.
	StatusRetryExceeded
	// StatusCQOverflow is a synthetic completion reporting that the CQ
	// overflowed and real completions were lost (CQ.Overflows counts
	// them). It carries no WR identity.
	StatusCQOverflow
	// StatusRemoteDown marks WRs terminated because reconnection to the
	// remote endpoint exhausted its bounded attempt budget
	// (QP.Reconnect): the remote node is down or unreachable for longer
	// than the backoff policy tolerates.
	StatusRemoteDown
)

func (s Status) String() string {
	switch s {
	case StatusSuccess:
		return "success"
	case StatusFlushed:
		return "flushed"
	case StatusLenError:
		return "length-error"
	case StatusRemoteError:
		return "remote-error"
	case StatusRetryExceeded:
		return "retry-exceeded"
	case StatusCQOverflow:
		return "cq-overflow"
	case StatusRemoteDown:
		return "remote-down"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// SendWR is a send work request: the message payload plus, for unreliable
// QPs, the destination ("The WRs in a UDP QP identify the target ...
// address/port", paper §3).
type SendWR struct {
	ID      uint64
	Payload buf.Buf
	// Unreliable QPs only:
	RemoteAddr inet.Addr6
	RemotePort uint16
}

// RecvWR is a receive work request identifying buffer capacity for one
// incoming message.
type RecvWR struct {
	ID       uint64
	Capacity int
}

// Completion is a CQ entry.
type Completion struct {
	QPN     uint32
	WRID    uint64
	Op      Op
	Status  Status
	ByteLen int
	// Payload carries received data (Op == OpRecv).
	Payload buf.Buf
	// Source of an unreliable receive.
	RemoteAddr inet.Addr6
	RemotePort uint16
}

// Errors returned by the verbs layer.
var (
	ErrQueueFull    = errors.New("verbs: work queue full")
	ErrBadState     = errors.New("verbs: QP in wrong state")
	ErrTooBig       = errors.New("verbs: message exceeds device maximum")
	ErrCQOverflow   = errors.New("verbs: completion queue overflow")
	ErrPortBusy     = errors.New("verbs: port in use")
	ErrNoRoute      = errors.New("verbs: no route to destination")
	ErrConnRefused  = errors.New("verbs: connection refused")
	ErrNotSupported = errors.New("verbs: operation not supported")
	// ErrRetryExceeded reports a connection torn down after TCP
	// retransmission exhausted its retry budget (unreachable peer).
	ErrRetryExceeded = errors.New("verbs: retry budget exceeded, peer unreachable")
	// ErrNoResources reports adapter state-table (SRAM TCB) exhaustion.
	ErrNoResources = errors.New("verbs: adapter out of QP resources")
	// ErrQPExhausted is the typed form of QP-table exhaustion: CreateQP
	// refused because the adapter already holds its capacity of live QPs.
	// Returned errors are *QPExhaustedError values carrying the occupancy;
	// errors.Is matches both ErrQPExhausted and ErrNoResources.
	ErrQPExhausted = errors.New("verbs: adapter QP table exhausted")
	// ErrSRQAttached refuses per-QP receive posting on a QP that draws
	// from a shared receive queue; post to the SRQ instead.
	ErrSRQAttached = errors.New("verbs: QP attached to an SRQ; post receives to the SRQ")
	// ErrForeignSRQ refuses QPConfig.SRQ naming a pool the new QP cannot
	// join: one created on another device (its reposts would notify the
	// wrong adapter) or another QP's own receive queue.
	ErrForeignSRQ = errors.New("verbs: SRQ belongs to another device or QP")
	// ErrSQDraining refuses new send WRs while the QP is in the SQD
	// (send-queue drain) state.
	ErrSQDraining = errors.New("verbs: send queue draining (SQD)")
	// ErrRemoteDown reports that QP.Reconnect exhausted its bounded
	// attempt budget: the remote endpoint stayed down.
	ErrRemoteDown = errors.New("verbs: remote endpoint down, reconnect attempts exhausted")
	// ErrNICDown reports that the local adapter is down (crashed and not
	// yet restarted); management verbs are refused until it reboots.
	ErrNICDown = errors.New("verbs: adapter down")
	// ErrPeerRestarted reports a connection fenced because a frame from a
	// newer peer boot epoch proved the remote adapter rebooted.
	ErrPeerRestarted = errors.New("verbs: peer adapter restarted, connection fenced")
	// ErrAdminError marks a QP administratively moved to the error state
	// via ModifyQP(QPError).
	ErrAdminError = errors.New("verbs: QP administratively moved to error state")
	// ErrHandshakeTimeout reports a connect attempt abandoned by
	// QP.Reconnect because the rendezvous did not establish within the
	// policy's Handshake window (the peer may be mid-recycle; another
	// attempt follows after backoff).
	ErrHandshakeTimeout = errors.New("verbs: connection rendezvous timed out")
)

// QPExhaustedError reports CreateQP refused at adapter QP-table capacity,
// carrying the occupancy that refused it.
type QPExhaustedError struct {
	// Current is the number of live QPs when creation was refused;
	// Capacity is the adapter's QP-table bound.
	Current, Capacity int
}

func (e *QPExhaustedError) Error() string {
	return fmt.Sprintf("verbs: adapter QP table exhausted (%d/%d QPs)", e.Current, e.Capacity)
}

// Is matches the typed sentinel and, for compatibility with pre-typed
// callers, the generic resource-exhaustion sentinel.
func (e *QPExhaustedError) Is(target error) bool {
	return target == ErrQPExhausted || target == ErrNoResources
}

// Device is the adapter seen from the host library: the QPIP NIC firmware
// implements it. Methods are invoked in simulation context; management
// operations model the paper's management FSM.
type Device interface {
	// HostCPU is the processor host-side verbs costs are charged to.
	HostCPU() *sim.CPU
	// MaxMessage reports the largest message a QP message may carry (one
	// message maps to one TCP segment, so this is MTU-derived).
	MaxMessage() int
	// AllocQPN hands out the next queue pair number on this adapter.
	// Allocation is per-device (deterministic regardless of what other
	// adapters — possibly on other shard engines — are doing); low QPNs
	// are reserved, as in Infiniband.
	AllocQPN() uint32
	// CreateQP registers a new QP with the adapter (management FSM).
	CreateQP(qp *QP) error
	// DestroyQP tears a QP down, flushing outstanding WRs.
	DestroyQP(qp *QP)
	// ResetQP returns a QP to the reset state on the adapter: any TCB is
	// aborted and unlinked, timers cancelled, and consumed-but-unacked
	// send WRs completed with StatusFlushed. After an adapter crash wiped
	// the state table, the QP is re-admitted subject to capacity. Called
	// by ModifyQP(QPReset).
	ResetQP(qp *QP) error
	// BindUDP binds an unreliable QP to a UDP port (0 = ephemeral).
	BindUDP(qp *QP, port uint16) (uint16, error)
	// Connect initiates the TCP rendezvous for a reliable QP.
	Connect(qp *QP, raddr inet.Addr6, rport uint16) error
	// Listen instructs the interface to monitor a TCP port for incoming
	// connections (paper §3).
	Listen(port uint16) (*Listener, error)
	// SendDoorbell notifies the adapter of n new send WRs on qp with one
	// doorbell: a single PIO write carrying the WR count, so a batch
	// crosses the bus once. A single post is a count of 1.
	SendDoorbell(qp *QP, n int)
	// RecvPosted notifies the adapter that n receive WRs were posted to
	// pool, with a single notification write. Posting grows the TCP
	// receive window (paper §5.1): the firmware re-advertises the window
	// of an owned pool's QP, and drains the connections stalled on a
	// shared pool.
	RecvPosted(pool *SRQ, n int)
	// AttachCQ registers a completion queue with the adapter, letting it
	// bind an event (interrupt) line for coalesced completion wakeups.
	// Called by NewCQ.
	AttachCQ(cq *CQ)
}

// Listener is a TCP port being monitored by the adapter. Applications
// park idle QPs on it; an incoming connection "mates the connection to an
// idle QP in the server application" (paper §3).
type Listener struct {
	Port uint16
	dev  Device
	idle []*QP
}

// NewListener is used by Device implementations.
func NewListener(port uint16, dev Device) *Listener {
	return &Listener{Port: port, dev: dev}
}

// Post parks an idle QP to absorb the next incoming connection. The QP
// enters RTR (ready to receive: awaiting the handshake).
func (l *Listener) Post(qp *QP) error {
	if qp.State() != QPReset && qp.State() != QPInit {
		return ErrBadState
	}
	qp.state = QPRTR
	qp.parked = l
	l.idle = append(l.idle, qp)
	return nil
}

// TakeIdle pops an idle QP (used by the firmware when a SYN arrives).
func (l *Listener) TakeIdle() (*QP, bool) {
	if len(l.idle) == 0 {
		return nil, false
	}
	qp := l.idle[0]
	l.idle = l.idle[1:]
	qp.parked = nil
	return qp, true
}

// unpark removes a parked QP that is being recycled or closed before any
// connection mated it.
func (l *Listener) unpark(qp *QP) {
	for i, q := range l.idle {
		if q == qp {
			l.idle = append(l.idle[:i], l.idle[i+1:]...)
			return
		}
	}
}

// Idle reports the number of parked QPs.
func (l *Listener) Idle() int { return len(l.idle) }

package verbs

import (
	"repro/internal/inet"
	"repro/internal/params"
	"repro/internal/sim"
)

// ModifyQP drives the host-controlled edges of the QP lifecycle, following
// the Infiniband modify-QP model (MPICH2-over-IB practice: an explicit
// RESET→INIT→RTR→RTS machine with SQD and ERR excursions). Because QPIP's
// connection rendezvous runs inside the adapter (paper §3), the INIT→RTR
// and RTR→RTS edges belong to the device — Connect, Listener.Post and the
// firmware's SetEstablished — so requesting them here returns
// ErrNotSupported. The host-driven edges are:
//
//	RESET → INIT            register intent (API fidelity; no device action)
//	RTS   → SQD             begin send-queue drain (PostSend refused)
//	SQD   → RTS             resume sending after (or during) a drain
//	any live state → ERR    administrative kill: flush everything
//	any state ≤ ERR → RESET recycle: device aborts the TCB, WRs flush,
//	                        addressing clears; the QP can connect again
//
// Transitions are idempotent where Infiniband makes them so (ERR→ERR,
// RESET→RESET). Every other (state, target) pair is a documented error:
// ErrBadState from CLOSED, ErrNotSupported for device-owned or undefined
// edges. The call charges VerbsModifyQPUS of host CPU.
func (q *QP) ModifyQP(p *sim.Proc, to QPState) error {
	p.Use(q.dev.HostCPU().Server, params.US(params.VerbsModifyQPUS))
	if q.state == QPClosed {
		return ErrBadState
	}
	switch to {
	case QPInit:
		if q.state != QPReset {
			return ErrNotSupported
		}
		q.state = QPInit
		return nil
	case QPRTR:
		// Device-owned edge (Connect / Listener.Post).
		return ErrNotSupported
	case QPRTS:
		// SQD→RTS resume is the only host-driven path to RTS; the
		// RTR→RTS edge is driven by the firmware's rendezvous.
		if q.state != QPSQD {
			return ErrNotSupported
		}
		q.state = QPRTS
		return nil
	case QPSQD:
		if q.state != QPRTS {
			return ErrNotSupported
		}
		q.state = QPSQD
		return nil
	case QPError:
		if q.state == QPError {
			return nil
		}
		// SetFailed performs the deterministic flush (see FlushWith) and
		// wakes connection/drain waiters.
		q.SetFailed(ErrAdminError, StatusFlushed)
		return nil
	case QPReset:
		if q.state == QPReset {
			return nil
		}
		q.unpark()
		if err := q.dev.ResetQP(q); err != nil {
			return err
		}
		q.FlushWith(StatusFlushed)
		q.err = nil
		q.LocalPort = 0
		q.RemotePort = 0
		q.RemoteAddr = inet.Addr6{}
		q.state = QPReset
		q.est.Wake()
		q.sqd.Wake()
		return nil
	case QPClosed:
		// Destruction goes through Close, not ModifyQP.
		return ErrNotSupported
	default:
		return ErrNotSupported
	}
}

// SQDrained reports whether a QP in the SQD state has no sends outstanding
// (posted or consumed by the adapter).
func (q *QP) SQDrained() bool {
	return q.state == QPSQD && q.outSend == 0
}

// WaitSQDrained blocks until the send queue has drained after
// ModifyQP(QPSQD), or the QP leaves SQD (failure or reset). It returns nil
// once drained, ErrBadState if the QP is not in SQD, and the QP's error if
// it failed while draining.
func (q *QP) WaitSQDrained(p *sim.Proc) error {
	for {
		switch {
		case q.state == QPSQD && q.outSend == 0:
			return nil
		case q.state == QPError:
			if q.err != nil {
				return q.err
			}
			return ErrBadState
		case q.state != QPSQD:
			return ErrBadState
		}
		q.sqd.Park(p)
		p.Suspend()
	}
}

// BackoffPolicy is a deterministic exponential-backoff schedule for
// QP.Reconnect. Delays double from Base to Max with ±25% jitter derived
// from Seed and the attempt ordinal via a splitmix64-style hash — pure
// simulated time, no wall clock and no math/rand, so two runs of the same
// seed reconnect at identical instants.
type BackoffPolicy struct {
	// Base is the delay before the first retry (default 1ms).
	Base sim.Time
	// Max caps the exponential growth (default 500ms).
	Max sim.Time
	// Attempts bounds the number of connect attempts before the endpoint
	// is declared down (default 8).
	Attempts int
	// Handshake caps one attempt's rendezvous: a connect that has not
	// established within the window is aborted (TCB reset) and retried
	// after backoff. Without a cap, a SYN lost to a mid-recycle peer
	// parks the attempt behind TCP's InitialRTO (3 s) — far longer than
	// simply trying again. Default 2*Max.
	Handshake sim.Time
	// Seed decorrelates jitter across policies sharing a schedule.
	Seed uint64
}

func (b BackoffPolicy) withDefaults() BackoffPolicy {
	if b.Base <= 0 {
		b.Base = sim.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 500 * sim.Millisecond
	}
	if b.Attempts <= 0 {
		b.Attempts = 8
	}
	if b.Handshake <= 0 {
		b.Handshake = 2 * b.Max
	}
	return b
}

// jitterHash is a splitmix64 finalizer: a pure function of its argument,
// used to derive per-attempt jitter deterministically.
func jitterHash(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Delay reports the backoff before retry attempt (1-based): exponential
// growth capped at Max, with deterministic ±25% jitter.
func (b BackoffPolicy) Delay(attempt int) sim.Time {
	b = b.withDefaults()
	d := b.Base
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= b.Max {
			d = b.Max
			break
		}
	}
	// ±25% jitter: scale by a factor in [0.75, 1.25).
	h := jitterHash(b.Seed ^ uint64(attempt)*0x9e3779b97f4a7c15)
	frac := float64(h>>11) / float64(1<<53) // [0,1)
	d = sim.Time(float64(d) * (0.75 + 0.5*frac))
	if d < sim.Microsecond {
		d = sim.Microsecond
	}
	return d
}

// Reconnect recycles a failed (or reset) QP and re-runs the rendezvous to
// raddr:rport under the backoff policy: ModifyQP(QPReset), Connect, and
// the established wait, sleeping pol.Delay between attempts. It returns
// nil once established. After pol.Attempts failures the QP is left in
// QPError with ErrRemoteDown and Reconnect returns ErrRemoteDown — the
// caller's outstanding-WR bookkeeping should surface StatusRemoteDown to
// the application. A local adapter crash (ErrNICDown) also retries: the
// adapter may be mid-reboot.
func (q *QP) Reconnect(p *sim.Proc, raddr inet.Addr6, rport uint16, pol BackoffPolicy) error {
	pol = pol.withDefaults()
	for attempt := 1; attempt <= pol.Attempts; attempt++ {
		if err := q.ModifyQP(p, QPReset); err == nil {
			if err := q.connectWithin(p, raddr, rport, pol.Handshake); err == nil {
				return nil
			}
		}
		if attempt < pol.Attempts {
			p.Sleep(pol.Delay(attempt))
		}
	}
	// Exhausted: pin the QP in ERR with the terminal status.
	if q.state != QPError {
		q.SetFailed(ErrRemoteDown, StatusRemoteDown)
	} else {
		q.err = ErrRemoteDown
	}
	return ErrRemoteDown
}

// handshakePollUS paces the established-state polls inside connectWithin.
// The rendezvous itself completes in tens of microseconds on the SAN, so
// one tick of added latency is noise against the backoff timescale.
const handshakePollUS = 50

// connectWithin is Connect with a deadline on the rendezvous: if the
// adapter has not reported established when the window closes, the
// half-open attempt is abandoned (ModifyQP(QPReset) aborts the TCB) and
// ErrHandshakeTimeout is returned. The wait polls the simulated clock
// instead of parking on the established waiter, so the deadline needs no
// extra timer machinery and remains deterministic.
func (q *QP) connectWithin(p *sim.Proc, raddr inet.Addr6, rport uint16, window sim.Time) error {
	if q.Transport != Reliable {
		return ErrNotSupported
	}
	if q.state != QPReset && q.state != QPInit {
		return ErrBadState
	}
	q.state = QPConnecting
	if err := q.dev.Connect(q, raddr, rport); err != nil {
		q.state = QPError
		q.err = err
		return err
	}
	deadline := p.Now() + window
	for q.state == QPConnecting && p.Now() < deadline {
		p.Sleep(params.US(handshakePollUS))
	}
	if q.state == QPConnecting {
		if err := q.ModifyQP(p, QPReset); err != nil {
			return err
		}
		return ErrHandshakeTimeout
	}
	if q.state != QPEstablished {
		if q.err != nil {
			return q.err
		}
		return ErrBadState
	}
	return nil
}

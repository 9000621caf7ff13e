package verbs

import (
	"fmt"

	"repro/internal/params"
	"repro/internal/pool"
	"repro/internal/sim"
)

// SRQ is a receive pool: a FIFO of receive work requests the adapter
// claims from as messages arrive. Every QP draws from exactly one pool.
// A QP created without QPConfig.SRQ owns an implicit one-member pool,
// embedded in the QP (its private receive queue); a pool created with
// NewSRQ is shared by every QP attached to it. The MPICH2-over-InfiniBand
// work motivates sharing for connection density — with private queues,
// receive buffer memory grows as connections × depth even though only a
// few connections are active at any instant; with an SRQ it grows with
// the instantaneous message backlog.
//
// Ownership is the only distinction between the two kinds (DESIGN §16.1):
// an owned pool follows its QP's state, is bounded by its RecvDepth, and
// flushes with it; a shared pool outlives the failure of any member.
//
// Claim order is deterministic FIFO: the firmware claims the oldest posted
// WR regardless of which QP the message arrived on, so two runs of the
// same seed claim identical WR IDs (the chaos and parallel matrices pin
// this). When the pool runs dry the adapter withholds TCP window instead
// of dropping (RNR backpressure), and the IB-style limit event tells the
// application to repost.
type SRQ struct {
	dev   Device
	q     pool.Ring[RecvWR] // bounded by depth
	depth int
	// owner is the QP an owned pool belongs to; nil for a shared pool.
	owner *QP

	postedBytes int

	// IB-style SRQ limit: when armed, the first claim that leaves fewer
	// than limit WRs posted fires a one-shot event waking WaitLimit.
	limit       int
	limitArmed  bool
	limitFired  bool
	limitWaiter sim.Waiter

	attached int // QPs currently attached

	claims, limitEvents uint64
}

// SRQConfig sizes a shared receive queue.
type SRQConfig struct {
	// Depth bounds posted-but-unclaimed WRs (default 1024).
	Depth int
	// Limit arms the low-watermark event at creation (0 = unarmed; see
	// ArmLimit).
	Limit int
}

// NewSRQ creates a shared receive queue on a device. QPs attach at create
// time via QPConfig.SRQ.
func NewSRQ(dev Device, cfg SRQConfig) (*SRQ, error) {
	if cfg.Depth <= 0 {
		cfg.Depth = 1024
	}
	if cfg.Limit < 0 || cfg.Limit > cfg.Depth {
		return nil, fmt.Errorf("verbs: SRQ limit %d outside [0,%d]", cfg.Limit, cfg.Depth)
	}
	s := &SRQ{dev: dev, depth: cfg.Depth}
	if cfg.Limit > 0 {
		s.limit = cfg.Limit
		s.limitArmed = true
	}
	return s, nil
}

// PostRecv posts one receive work request: a batch of one.
//
//qpip:hotpath
func (s *SRQ) PostRecv(p *sim.Proc, wr RecvWR) error {
	_, err := s.PostRecvN(p, []RecvWR{wr})
	return err
}

// PostRecvN posts up to len(wrs) receive WRs with one batched CPU charge
// (first WR at full cost, the rest at the marginal batch cost) and a
// single notification write. Posting receive space grows the TCP receive
// window (paper §5.1): an owned pool's QP re-advertises, and connections
// stalled on a shared pool drain. On a partial post (pool fills or an
// invalid WR mid-batch) the prefix that fits is posted and only that
// prefix is charged, with nothing charged when the count is zero; the
// error reports why the batch stopped.
//
//qpip:hotpath
func (s *SRQ) PostRecvN(p *sim.Proc, wrs []RecvWR) (int, error) {
	if len(wrs) == 0 {
		return 0, nil
	}
	room := s.depth - s.q.Len()
	if q := s.owner; q != nil {
		// An owned pool is its QP's receive queue: it follows the QP's
		// state, and RecvDepth bounds posted plus claimed-but-uncompleted
		// WRs.
		if q.state == QPError {
			return 0, q.err
		}
		if q.state == QPClosed {
			return 0, ErrBadState
		}
		room -= q.outRecv
	}
	// Validate before charging: n is the accepted prefix.
	n := 0
	var err error
	for _, wr := range wrs {
		if n >= room {
			err = ErrQueueFull
			break
		}
		if wr.Capacity <= 0 {
			//lint:qpip-allow hotprop rejected-WR error path, cold by construction
			err = fmt.Errorf("verbs: receive WR needs positive capacity")
			break
		}
		n++
	}
	if n == 0 {
		return 0, err
	}
	p.Use(s.dev.HostCPU().Server,
		params.US(params.VerbsPostRecvUS+float64(n-1)*params.VerbsPostRecvBatchUS))
	s.q.Reserve(s.depth)
	for _, wr := range wrs[:n] {
		s.postedBytes += wr.Capacity
		s.q.Push(wr)
	}
	s.dev.RecvPosted(s, n)
	return n, err
}

// ArmLimit arms the low-watermark event: the first claim that leaves
// fewer than limit WRs posted fires it (once). If the pool is already
// below the watermark the event fires immediately, so a repost loop
// parked in WaitLimit cannot miss the crossing.
func (s *SRQ) ArmLimit(limit int) error {
	if limit <= 0 || limit > s.depth {
		return fmt.Errorf("verbs: SRQ limit %d outside [1,%d]", limit, s.depth)
	}
	s.limit = limit
	s.limitArmed = true
	if s.Posted() < s.limit {
		s.fireLimit()
	}
	return nil
}

// WaitLimit parks until the armed limit event fires. Consuming the event
// leaves the limit unarmed; re-arm with ArmLimit after reposting.
func (s *SRQ) WaitLimit(p *sim.Proc) {
	for !s.limitFired {
		s.limitWaiter.Park(p)
		p.Suspend()
	}
	s.limitFired = false
}

func (s *SRQ) fireLimit() {
	s.limitArmed = false
	s.limitFired = true
	s.limitEvents++
	s.limitWaiter.Wake()
}

// take claims the oldest posted WR (device context: the firmware resolved
// an arriving message to a member QP and charged the claim stage).
//
//qpip:hotpath
func (s *SRQ) take() (RecvWR, bool) {
	wr, ok := s.q.Pop()
	if !ok {
		return wr, false
	}
	s.postedBytes -= wr.Capacity
	s.claims++
	if s.limitArmed && s.q.Len() < s.limit {
		s.fireLimit()
	}
	return wr, true
}

// Posted reports posted-but-unclaimed WRs in the pool.
func (s *SRQ) Posted() int { return s.q.Len() }

// PostedBytes reports unclaimed receive capacity in bytes; the firmware
// advertises it as the TCP receive window of every attached connection.
func (s *SRQ) PostedBytes() int { return s.postedBytes }

// Owner reports the QP an owned pool belongs to; nil for a shared pool.
func (s *SRQ) Owner() *QP { return s.owner }

// Attached reports the number of QPs currently attached (1 for a live
// QP's owned pool).
func (s *SRQ) Attached() int { return s.attached }

// Depth reports the pool bound.
func (s *SRQ) Depth() int { return s.depth }

// Claims reports WRs claimed by the device over the SRQ's lifetime.
func (s *SRQ) Claims() uint64 { return s.claims }

// LimitEvents reports how many times the armed limit watermark fired.
func (s *SRQ) LimitEvents() uint64 { return s.limitEvents }

// HostMemBytes reports the host memory pinned by the pool right now:
// descriptor slots plus the posted buffers awaiting claim. The connscale
// experiment divides this across attached QPs for the per-connection
// figure.
func (s *SRQ) HostMemBytes() int {
	return s.q.Len()*params.HostWRBytes + s.postedBytes
}

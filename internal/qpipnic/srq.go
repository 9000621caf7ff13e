package qpipnic

import (
	"repro/internal/pool"
	"repro/internal/verbs"
)

// srqState is the adapter-side view of one shared receive pool: a FIFO
// of connections stalled waiting for shared buffers. The WR pool itself
// is host-resident (it survives an adapter crash like every host-memory
// queue); the adapter only tracks who to wake when the host reposts.
// An owned pool needs no such state: its one member is re-advertised on
// every post.
//
// A connection parks here in two cases, both dup-idempotent via the
// qpState.srqWait flag: it holds stashed in-order records the pool could
// not buffer (the RNR case), or it advertised a zero receive window off
// an empty pool (the peer is now probing, and only a repost can reopen
// the window). One RecvPosted notification drains the waiters parked at
// notification time in FIFO order; connections the drain re-starves
// re-park and wait for the next repost, so a starved pool converges
// instead of spinning.
type srqState struct {
	// waiters holds at most one entry per attached QP (qpState.srqWait).
	waiters pool.Ring[*qpState]
}

// onRecvPosted is the firmware's side of RecvPosted, run when the
// notification write lands. A post to an owned pool re-advertises its
// QP's window once, parked or not; the QP may have been destroyed (and
// its QPN recycled) while the write was in flight, so the state entry
// must still map to the pool's owner. A post to a shared pool drains its
// parked waiters.
//
//qpip:hotpath
func (n *NIC) onRecvPosted(p *verbs.SRQ) {
	if owner := p.Owner(); owner != nil {
		if qs := n.qps.get(owner.QPN); qs != nil && qs.qp == owner {
			n.drainStashAndUpdate(qs)
		}
		return
	}
	if ss := n.srqs[p]; ss != nil {
		n.drainSRQ(ss)
	}
}

// enqueueSRQWaiter parks a connection on its shared pool. Idempotent per
// connection: a second stall before the drain is absorbed by the flag, so
// duplicate RNR events (retransmitted data, repeated window probes) never
// double-queue. A connection on an owned pool never parks: every post to
// its pool reaches it directly.
//
//qpip:hotpath
func (n *NIC) enqueueSRQWaiter(qs *qpState) {
	p := qs.qp.SRQ()
	if p.Owner() != nil || qs.srqWait {
		return
	}
	ss := n.srqs[p]
	if ss == nil {
		// First stall on this pool since power-on or the last crash.
		ss = &srqState{}
		n.srqs[p] = ss
	}
	qs.srqWait = true
	ss.waiters.Push(qs)
}

// drainSRQ wakes the connections parked on a pool, in park order. Only
// waiters present when the repost landed are drained — a connection the
// drain re-starves re-parks behind the cut and waits for the next repost.
// Each drained entry is liveness-checked against the state table, so a
// connection destroyed while parked is skipped.
//
//qpip:hotpath
func (n *NIC) drainSRQ(ss *srqState) {
	for k := ss.waiters.Len(); k > 0; k-- {
		qs, _ := ss.waiters.Pop()
		qs.srqWait = false
		if n.qps.get(qs.qp.QPN) != qs {
			continue // destroyed while parked
		}
		n.drainStashAndUpdate(qs)
	}
}

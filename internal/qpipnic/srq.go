package qpipnic

import (
	"repro/internal/pool"
	"repro/internal/verbs"
)

// srqState is the adapter-side view of one shared receive queue: a FIFO
// of connections stalled waiting for shared buffers. The WR pool itself
// is host-resident (it survives an adapter crash like every host-memory
// queue); the adapter only tracks who to wake when the host reposts.
//
// A connection parks here in two cases, both dup-idempotent via the
// qpState.srqWait flag: it holds stashed in-order records the pool could
// not buffer (the RNR case), or it advertised a zero receive window off
// an empty pool (the peer is now probing, and only a repost can reopen
// the window). One SRQPosted notification drains the waiters parked at
// notification time in FIFO order; connections the drain re-starves
// re-park and wait for the next repost, so a starved pool converges
// instead of spinning.
type srqState struct {
	srq *verbs.SRQ
	// waiters holds at most one entry per attached QP (qpState.srqWait).
	waiters pool.Ring[*qpState]
	// drainFn is pre-bound so the notification PIO path never allocates.
	drainFn func()
}

// srqFor resolves (or registers) the adapter-side state of an SRQ.
// Adapters hold a handful of SRQs; the attach-order scan keeps
// registration deterministic without a map.
func (n *NIC) srqFor(srq *verbs.SRQ) *srqState {
	for _, ss := range n.srqs {
		if ss.srq == srq {
			return ss
		}
	}
	ss := &srqState{srq: srq}
	//lint:qpip-allow hotprop drainFn is bound once per SRQ at first registration; subsequent posts hit the lookup loop above
	ss.drainFn = func() { n.drainSRQ(ss) }
	n.srqs = append(n.srqs, ss)
	return ss
}

// SRQPosted implements verbs.Device: the host posted count WRs to a
// shared pool. One notification write crosses the bus regardless of batch
// size; the firmware wakes the connections parked on the pool.
func (n *NIC) SRQPosted(srq *verbs.SRQ, count int) {
	ss := n.srqFor(srq)
	n.cfg.Bus.PIOWrite("recv-doorbell", ss.drainFn)
}

// enqueueSRQWaiter parks a connection on its shared pool. Idempotent per
// connection: a second stall before the drain is absorbed by the flag, so
// duplicate RNR events (retransmitted data, repeated window probes) never
// double-queue.
//
//qpip:hotpath
func (n *NIC) enqueueSRQWaiter(qs *qpState) {
	if qs.srqs == nil || qs.srqWait {
		return
	}
	qs.srqWait = true
	qs.srqs.waiters.Push(qs)
}

// drainSRQ wakes the connections parked on a pool, in park order. Only
// waiters present when the repost landed are drained — a connection the
// drain re-starves re-parks behind the cut and waits for the next repost.
// Crash-flush safety: a crash wipes the adapter-side waiter list with the
// rest of SRAM, and each drained entry is liveness-checked against the
// state table, so a stale notification after crash/restart touches
// nothing.
//
//qpip:hotpath
func (n *NIC) drainSRQ(ss *srqState) {
	for k := ss.waiters.Len(); k > 0; k-- {
		qs, _ := ss.waiters.Pop()
		qs.srqWait = false
		if n.qps.get(qs.qp.QPN) != qs {
			continue // destroyed or crashed while parked
		}
		n.drainStashAndUpdate(qs)
	}
}

// crashSRQs wipes the adapter-side SRQ bookkeeping (waiter lists). The
// host-resident pools and their posted WRs survive, exactly like private
// host-memory queues: after restart and QP re-admission, arriving records
// claim from the same pool.
func (n *NIC) crashSRQs() {
	for _, ss := range n.srqs {
		ss.waiters.Reset()
	}
	n.srqs = nil
}

package qpipnic

import (
	"repro/internal/sim"
	"repro/internal/verbs"
)

// This file implements adapter crash and restart — the fault layer's
// node-reboot scenario (DESIGN §13). A crash wipes everything resident in
// adapter SRAM: the QP/TCB state table, the doorbell FIFO, the transmit
// scheduler queue, listener and port tables. Host memory survives (QP and
// CQ structures, posted WR queues), so the host observes the crash as
// every QP failing with ErrNICDown and can recycle QPs through
// ModifyQP(QPReset) once the adapter reboots.
//
// In-flight firmware events that were already scheduled (a chain runner
// mid-stage, a completion-token DMA) complete against the orphaned
// qpState entries: their send-ID and stash queues are emptied here, so
// the continuations run out of work and fall through. That mirrors
// hardware, where a DMA the bridge already accepted still lands in host
// memory after the NIC's processor halts.

// Down reports whether the adapter is crashed (between Crash and Restart).
func (n *NIC) Down() bool { return n.down }

// BootEpoch reports the adapter's current boot generation (starts at 1,
// increments on every Restart).
func (n *NIC) BootEpoch() uint32 { return n.bootEpoch }

// Crash halts the adapter mid-run, wiping NIC-resident state. Every live
// QP fails with ErrNICDown: consumed-but-unacked send WRs complete with
// StatusFlushed through the host notification path (the driver's
// device-dead interrupt), then the QP flushes. Failure order is sorted by
// QPN so two runs of the same seed observe identical completion
// sequences. Idempotent while already down.
func (n *NIC) Crash() {
	if n.down {
		return
	}
	n.down = true
	n.Net.Add("nic.crash", 1)

	qpns := n.qps.liveQPNs(make([]uint32, 0, n.qps.len()))
	for _, qpn := range qpns {
		qs := n.qps.get(qpn)
		sim.Disarm(&qs.timer)
		qs.conn = nil // the TCB is gone; stale timers/chains find no work
		ids := qs.clearSendState()
		qs.pendingWRs = 0
		qp := qs.qp
		n.notifyHost(func() {
			for id, ok := ids.Pop(); ok; id, ok = ids.Pop() {
				qp.CompleteSend(id, verbs.StatusFlushed, 0)
			}
			qp.SetFailed(verbs.ErrNICDown, verbs.StatusFlushed)
		})
	}

	// The collective engine's group table is SRAM too: undone posted
	// operations flush to their CQs, then the groups vanish.
	n.crashColl()

	// Wipe the SRAM tables. The qpState entries stay reachable from
	// in-flight chain runners but are unlinked from every table. The QPN
	// free list is SRAM too: wiping it keeps pre-crash QPNs retired
	// forever, which the epoch fencing relies on. Host-resident SRQ pools
	// survive; every adapter-side waiter list vanishes with the pool
	// table, so a repost after restart finds no pre-crash waiter.
	n.qps.reset()
	n.txBound = 0
	n.qpnFree = n.qpnFree[:0]
	clear(n.srqs)
	n.tcp.Reset()
	n.udpPorts.Reset()

	// Drop the transmit scheduler queue (segments return to their pool)
	// and drain the doorbell FIFO. The work item in flight is not queued:
	// it runs on, like every scheduled firmware event, and still reaches
	// its Send, so the emission floor keeps tracking its runner (txRun)
	// until the runner is freed.
	for w, ok := n.txQ.Pop(); ok; w, ok = n.txQ.Pop() {
		if w.seg != nil && w.seg != &batchTail {
			w.seg.Release()
		}
	}
	for {
		if k := n.db.PopN(n.dbScratch[:]); k == 0 {
			break
		}
	}
}

// Restart reboots a crashed adapter with a fresh boot epoch. The state
// table is empty — hosts re-admit QPs via ModifyQP(QPReset) and re-run
// Listen/Connect. Ephemeral port and ISS generators restarted from their
// power-on values at the crash (tcp.Endpoints.Reset), so a restarted node
// is indistinguishable from a fresh one except for the epoch stamped on
// its frames.
func (n *NIC) Restart() {
	if !n.down {
		return
	}
	n.down = false
	n.bootEpoch++
	n.Net.Add("nic.restart", 1)
}

package qpipnic

import (
	"repro/internal/buf"
	"repro/internal/inet"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/udp"
	"repro/internal/verbs"
	"repro/internal/wire"
)

// This file is the schedule/transmit FSM (paper §3.1, Figure 2 left): a
// single scheduler loop that services one work item at a time — fetch WR,
// fetch data, build TCP/UDP and IP headers, inject, update state. The
// prototype's loop did not overlap the network send DMA with the next
// item, which is what bounds its large-MTU throughput; Config.PipelinedTX
// flips that for the ablation bench. Stage sequences execute on the pooled
// chain runners in chain.go.

// txWork is one scheduler queue entry, two words wide: the queue holds
// one per posted WR and ready segment of every QP at once.
type txWork struct {
	qs *qpState
	// seg is a ready TCP segment (ack, window-opened data,
	// retransmission). Otherwise the work item consumes one posted WR:
	// seg is nil for the first WR of a doorbell token and batchTail for
	// the second and later WRs of a vectored token, whose Doorbell Process
	// stage the first WR already paid, so they run the shorter txWRBatch
	// template.
	seg *tcp.Segment
}

// batchTail is the txWork.seg mark of an amortized WR; it is never sent.
var batchTail tcp.Segment

// enqueueTx adds work and kicks the scheduler.
//
//qpip:hotpath
func (n *NIC) enqueueTx(w txWork) {
	n.txQ.Push(w)
	n.kickTx()
}

// kickTx runs the scheduler on the oldest queued work item if idle.
//
//qpip:hotpath
func (n *NIC) kickTx() {
	if n.txBusy {
		return
	}
	w, ok := n.txQ.Pop()
	if !ok {
		return
	}
	n.txBusy = true
	n.runTxWork(w, n.txDoneFn)
}

// onDoorbell is the doorbell FSM wakeup: drain the whole FIFO in one
// activation and mark QPs. The drain is vectored (PopN into the scratch
// buffer); each token carries its QPN and WR count (dbToken).
//
//qpip:hotpath
func (n *NIC) onDoorbell() {
	if n.down {
		// A crashed adapter's FIFO logic is halted: rings land nowhere.
		for {
			if k := n.db.PopN(n.dbScratch[:]); k == 0 {
				return
			}
		}
	}
	n.txQ.Reserve(n.txBound)
	for {
		k := n.db.PopN(n.dbScratch[:])
		if k == 0 {
			return
		}
		for _, tok := range n.dbScratch[:k] {
			qs := n.qps.get(uint32(tok))
			if qs == nil {
				continue
			}
			cnt := int(tok >> 32)
			qs.pendingWRs += cnt
			// First WR of the token pays the full Doorbell Process stage;
			// the rest of the train amortizes it.
			n.enqueueTx(txWork{qs: qs})
			for j := 1; j < cnt; j++ {
				n.enqueueTx(txWork{qs: qs, seg: &batchTail})
			}
		}
	}
}

// runTxWork executes one scheduler item.
//
//qpip:hotpath
func (n *NIC) runTxWork(w txWork, done func()) {
	if w.seg != nil && w.seg != &batchTail {
		n.sendSegment(w.qs, w.seg, done)
		return
	}
	n.consumeSendWR(w.qs, w.seg == &batchTail, done)
}

// consumeSendWR processes one posted send WR: Doorbell Process (skipped
// for the amortized tail of a vectored token), Schedule, Get WR, then
// hand the message to the transport (the stTxWR stage).
//
//qpip:hotpath
func (n *NIC) consumeSendWR(qs *qpState, amortized bool, done func()) {
	if qs.pendingWRs <= 0 || n.qps.get(qs.qp.QPN) == nil {
		done()
		return
	}
	qs.pendingWRs--
	cr := n.getTxChain(done)
	if amortized {
		cr.use(n.txWRBatch[:])
	} else {
		cr.use(n.txWR[:])
	}
	cr.qs = qs
	cr.run()
}

// sendTCPMessage feeds one message into the TCB; segments the window
// admits transmit inline.
//
//qpip:hotpath
func (n *NIC) sendTCPMessage(qs *qpState, wr verbs.SendWR, done func()) {
	now := int64(n.eng.Now())
	// The IDs are bounded by the QP's outstanding sends.
	qs.sendIDs.Reserve(qs.qp.SendDepth())
	qs.sendIDs.Push(wr.ID)
	acts, err := qs.conn.Send(wr.Payload, now)
	if err != nil {
		qs.sendIDs.PopBack() // the TCB refused the message
		qs.qp.CompleteSend(wr.ID, verbs.StatusRemoteError, 0)
		done()
		return
	}
	n.eng.Rearm(&qs.timer, qs.conn, tcpTimer, qs.timerFn)
	n.handleActions(qs, acts, done)
}

// sendUDPMessage transmits one unreliable datagram. "As soon as a UDP
// message is sent, the associated send WR is marked as complete"
// (paper §3).
//
//qpip:hotpath
func (n *NIC) sendUDPMessage(qs *qpState, wr verbs.SendWR, done func()) {
	att, err := n.cfg.Routes.Lookup(wr.RemoteAddr)
	if err != nil {
		*n.txNoRoute++
		qs.qp.CompleteSend(wr.ID, verbs.StatusRemoteError, 0)
		done()
		return
	}
	pkt := wire.Get()
	l4 := udp.Marshal6Into(n.cfg.Addr, wr.RemoteAddr, qs.localPort, wr.RemotePort, wr.Payload, pkt.L4Scratch())
	pkt.IPHdr = inet.Marshal6Into(&inet.Header6{
		PayloadLength: uint16(len(l4) + wr.Payload.Len()),
		NextHeader:    inet.ProtoUDP,
		HopLimit:      inet.DefaultHopLimit,
		Src:           n.cfg.Addr,
		Dst:           wr.RemoteAddr,
	}, pkt.IPScratch())
	pkt.L4Hdr = l4
	pkt.Payload = wr.Payload
	pkt.Epoch = n.bootEpoch
	cr := n.getTxChain(done)
	cr.use(n.udpSend[:])
	cr.qs = qs
	cr.pkt = pkt
	cr.att = att
	cr.bytes = wr.Payload.Len()
	cr.wrID = wr.ID
	cr.run()
}

// sendSegment transmits one ready TCP segment (scheduler path for acks,
// retransmissions and window-opened data).
//
//qpip:hotpath
func (n *NIC) sendSegment(qs *qpState, seg *tcp.Segment, done func()) {
	// Build the real headers. The transmit-side transport checksum is
	// computed by the DMA engine hardware (paper §4.1), so it costs the
	// firmware nothing here.
	pkt := wire.Get()
	l4 := seg.MarshalHeaderInto(pkt.L4Scratch())
	tcp.SetChecksum(l4, inet.TransportChecksum6(n.cfg.Addr, qs.remoteAddr, inet.ProtoTCP, l4, seg.Payload))
	pkt.IPHdr = inet.Marshal6Into(&inet.Header6{
		PayloadLength: uint16(len(l4) + seg.Payload.Len()),
		NextHeader:    inet.ProtoTCP,
		HopLimit:      inet.DefaultHopLimit,
		Src:           n.cfg.Addr,
		Dst:           qs.remoteAddr,
	}, pkt.IPScratch())
	pkt.L4Hdr = l4
	pkt.Payload = seg.Payload
	pkt.Epoch = n.bootEpoch

	cr := n.getTxChain(done)
	if seg.Payload.Len() > 0 {
		cr.use(n.segData[:])
	} else {
		cr.use(n.segAck[:])
	}
	cr.pkt = pkt
	cr.att = qs.remoteAtt
	cr.bytes = seg.Payload.Len()
	// The header bytes and payload handle now live in pkt; the segment
	// itself is dead and can go back to its pool before the chain runs.
	seg.Release()
	cr.run()
}

// emissionFloor is the adapter's fabric floor (fabric.SetFloor): a lower
// bound on the time of its next Fabric.Send, given that its engine fires
// nothing before next. With b = max(next, CPU busy-until), a send none of
// whose stages has begun is at least b + minStart away. Every frame but a
// collective one leaves through the Send stage of the transmit FSM's one
// work item in flight, on the FIFO, non-preemptive firmware CPU, so a
// Send already ahead of that item bounds the floor sooner:
//
//   - its Send job queued: the job's completion time;
//   - otherwise b plus the firmware time of its stages through Send;
//     waiting on its Get Data burst, b starts at the burst's completion;
//     with the burst's DMA setup still queued, no earlier than next plus
//     the burst's duration.
//
// The collective engine sends beside the FSM: an adapter with a live
// group can send at next.
//
//qpip:barrier
func (n *NIC) emissionFloor(next sim.Time) sim.Time {
	if len(n.collGroups) > 0 {
		return next
	}
	busy := n.cpu.BusyUntil()
	b := max(next, busy)
	floor := b + n.minStart
	cr := n.txRun
	if cr == nil {
		return floor
	}
	switch cr.stages[cr.i-1].kind {
	case stMedia:
		if cr.at >= 0 {
			return cr.at // queued behind busy-until, so below floor
		}
	case stDMA:
		if cr.at >= 0 {
			b = max(cr.at, busy)
		} else {
			b = max(next+lanaiDMA(cr.bytes), busy)
		}
	}
	if d, ok := sendCost(cr.stages[cr.i:cr.nStages], cr.bytes); ok {
		floor = min(floor, b+d)
	}
	return floor
}

// ---- TCB action plumbing. ----

// handleActions processes TCB outputs: data/ack segments go to the
// transmit scheduler; completions and deliveries charge the receive-side
// stages inline, then done (which may be nil) runs.
func (n *NIC) handleActions(qs *qpState, acts tcp.Actions, done func()) {
	// Segments to the scheduler.
	for _, seg := range acts.Segments {
		n.enqueueTx(txWork{qs: qs, seg: seg})
	}
	if acts.Closed {
		// The TCB reached CLOSED (both directions done): drop it and
		// unlink the demux/port table entries immediately — connection
		// churn must not grow SRAM-resident tables. Any final segment was
		// enqueued above with its routing fields captured in the txWork.
		sim.Disarm(&qs.timer)
		qs.conn = nil
		n.tcp.Reap(qs.key(), qs)
	}
	if acts.AckedRecords == 0 && len(acts.Delivered) == 0 &&
		!acts.Established && !acts.Reset && !acts.RetryExceeded && !acts.PeerClosed {
		if done != nil {
			done()
		}
		return
	}
	cr := n.getChain(done)
	cr.qs = qs
	// Send completions: "This WR completes when all the data for that
	// message is acknowledged by the destination" (paper §3).
	if acts.AckedRecords > 0 {
		cr.completions = acts.AckedRecords
		cr.push(&stageComplete)
	}
	// Delivered records enter the SRAM stash *now*, synchronously, so the
	// TCB's delivery order is pinned before any chained stage runs —
	// concurrent receive chains must not transpose records. The stash
	// stage then drains into posted receive WRs.
	if len(acts.Delivered) > 0 {
		for _, rec := range acts.Delivered {
			qs.pushStash(rec)
		}
		cr.push(&stageStash)
		cr.push(&stageStashTally)
	}
	// Connection lifecycle events, once per connection or rarer.
	if acts.Established {
		cr.push(&stageEstablished)
	}
	if acts.Reset {
		cr.push(&stageReset)
	}
	if acts.RetryExceeded {
		// The retry budget is spent: the QP transitions to the error
		// state and outstanding WRs flush asynchronously with
		// StatusRetryExceeded (tentpole behaviour, DESIGN §8).
		cr.push(&stageRetryExceeded)
	}
	if acts.PeerClosed {
		cr.push(&stagePeerClosed)
	}
	cr.run()
}

// placeRecord runs the Get WR / Put Data / Update chain for one record.
//
//qpip:hotpath
func (n *NIC) placeRecord(qs *qpState, wr verbs.RecvWR, rec buf.Buf, raddr inet.Addr6, rport uint16, next func()) {
	status := verbs.StatusSuccess
	if rec.Len() > wr.Capacity {
		status = verbs.StatusLenError
	}
	cr := n.getChain(next)
	cr.use(n.place[:])
	cr.qs = qs
	cr.wr = wr
	cr.rec = rec
	cr.raddr = raddr
	cr.rport = rport
	cr.status = status
	cr.bytes = rec.Len()
	cr.run()
}

// drainStashAndUpdate delivers SRAM-stashed records into newly posted WRs,
// then re-advertises the receive window (an owned pool's RecvPosted path).
//
//qpip:hotpath
func (n *NIC) drainStashAndUpdate(qs *qpState) {
	cr := n.getChain(nil)
	cr.qs = qs
	cr.push(&stageStash)
	cr.push(&stageUpdateWindow)
	cr.run()
}

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

// txWork is one scheduler queue entry.
type txWork struct {
	qs *qpState
	// seg, when non-nil, is a ready TCP segment (ack, window-opened data,
	// retransmission). Otherwise the work item consumes one posted WR.
	seg *tcp.Segment
	// amortized marks the second and later WRs of one vectored doorbell
	// token: the Doorbell Process stage was already paid by the first WR,
	// so these run the shorter txWRBatch template.
	amortized bool
}

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
// buffer); a token may carry a WR count, and a bare QPN counts as one.
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
			if cnt == 0 {
				cnt = 1
			}
			qs.pendingWRs += cnt
			// First WR of the token pays the full Doorbell Process stage;
			// the rest of the train amortizes it.
			n.enqueueTx(txWork{qs: qs})
			for j := 1; j < cnt; j++ {
				n.enqueueTx(txWork{qs: qs, amortized: true})
			}
		}
	}
}

// runTxWork executes one scheduler item.
//
//qpip:hotpath
func (n *NIC) runTxWork(w txWork, done func()) {
	if w.seg != nil {
		n.sendSegment(w.qs, w.seg, done)
		return
	}
	n.consumeSendWR(w.qs, w.amortized, done)
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
	cr := n.getChain(done)
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
	qs.sendIDs.Push(wr.ID)
	acts, err := qs.conn.Send(wr.Payload, now)
	if err != nil {
		qs.sendIDs.PopBack() // the TCB refused the message
		qs.qp.CompleteSend(wr.ID, verbs.StatusRemoteError, 0)
		done()
		return
	}
	n.syncTimer(qs)
	n.handleActionsChain(qs, acts, done)
}

// sendUDPMessage transmits one unreliable datagram. "As soon as a UDP
// message is sent, the associated send WR is marked as complete"
// (paper §3).
//
//qpip:hotpath
func (n *NIC) sendUDPMessage(qs *qpState, wr verbs.SendWR, done func()) {
	att, err := n.cfg.Routes.Lookup(wr.RemoteAddr)
	if err != nil {
		n.stats.NoRouteDrops++
		qs.qp.CompleteSend(wr.ID, verbs.StatusRemoteError, 0)
		done()
		return
	}
	n.stats.UDPSends++
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
	cr := n.getChain(done)
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
	isData := seg.Payload.Len() > 0
	if isData {
		n.stats.DataSends++
	} else {
		n.stats.AckSends++
	}

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

	cr := n.getChain(done)
	if isData {
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

// ---- TCB action plumbing. ----

// handleActions processes TCB outputs in engine context without a
// surrounding chain (timers, management).
func (n *NIC) handleActions(qs *qpState, acts tcp.Actions, done func()) {
	n.handleActionsChain(qs, acts, done)
}

// handleActionsChain processes TCB outputs: data/ack segments go to the
// transmit scheduler; completions and deliveries charge the receive-side
// stages inline, then done runs.
func (n *NIC) handleActionsChain(qs *qpState, acts tcp.Actions, done func()) {
	// Segments to the scheduler.
	for _, seg := range acts.Segments {
		n.enqueueTx(txWork{qs: qs, seg: seg})
	}
	if acts.Closed {
		// The TCB reached CLOSED (both directions done): drop it and
		// unlink the demux/port table entries immediately — connection
		// churn must not grow SRAM-resident tables. Any final segment was
		// enqueued above with its routing fields captured in the txWork.
		if qs.timer != nil {
			qs.timer.Cancel()
			qs.timer = nil
		}
		qs.conn = nil
		n.reapConn(qs)
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
		cr.push(stage{kind: stComplete})
	}
	// Delivered records enter the SRAM stash *now*, synchronously, so the
	// TCB's delivery order is pinned before any chained stage runs —
	// concurrent receive chains must not transpose records. The stash
	// stage then drains into posted receive WRs.
	if len(acts.Delivered) > 0 {
		for _, rec := range acts.Delivered {
			qs.pushStash(rec)
		}
		cr.push(stage{kind: stStash})
		cr.push(stage{kind: stStashTally})
	}
	if acts.Established {
		//lint:qpip-allow hotprop connection establishment happens once per QP lifetime
		cr.push(stage{kind: stCustom, fn: func(next func()) {
			n.notifyHost(func() {
				qs.qp.SetEstablished(qs.localPort, qs.remotePort, qs.remoteAddr)
			})
			next()
		}})
	}
	if acts.Reset {
		//lint:qpip-allow hotprop connection reset is a rare failure event, not datapath work
		cr.push(stage{kind: stCustom, fn: func(next func()) {
			n.Net.Add("conn.reset", 1)
			n.failQP(qs, verbs.ErrConnRefused, verbs.StatusRemoteError)
			next()
		}})
	}
	if acts.RetryExceeded {
		// The retry budget is spent: the QP transitions to the error
		// state and outstanding WRs flush asynchronously with
		// StatusRetryExceeded (tentpole behaviour, DESIGN §8).
		//lint:qpip-allow hotprop retry exhaustion is a terminal failure event, not datapath work
		cr.push(stage{kind: stCustom, fn: func(next func()) {
			n.Net.Add("conn.retry-exceeded", 1)
			n.failQP(qs, verbs.ErrRetryExceeded, verbs.StatusRetryExceeded)
			next()
		}})
	}
	if acts.PeerClosed {
		//lint:qpip-allow hotprop peer close happens once per connection teardown
		cr.push(stage{kind: stCustom, fn: func(next func()) {
			qs.peerClosed = true
			n.notifyHost(func() { qs.qp.Flush() })
			next()
		}})
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
// then re-advertises the receive window (the RecvPosted path).
//
//qpip:hotpath
func (n *NIC) drainStashAndUpdate(qs *qpState) {
	cr := n.getChain(nil)
	cr.qs = qs
	cr.push(stage{kind: stStash})
	cr.push(stage{kind: stUpdateWindow})
	cr.run()
}

// syncTimer keeps one engine timer aligned with the TCB's earliest
// deadline — the transmit FSM "monitors for timeout/retransmit events
// pending on a QP" (paper §3.1).
//
//qpip:hotpath
func (n *NIC) syncTimer(qs *qpState) {
	if qs.timer != nil {
		qs.timer.Cancel()
		qs.timer = nil
	}
	if qs.conn == nil {
		return
	}
	deadline, ok := qs.conn.NextTimeout()
	if !ok {
		return
	}
	at := sim.Time(deadline)
	if at < n.eng.Now() {
		at = n.eng.Now()
	}
	qs.timer = n.eng.At(at, "qpip.tcp.timer", qs.timerFn)
}

// onQPTimer is the timer callback body; qs.timerFn binds it once at QP
// creation so re-arming the timer never allocates.
//
//qpip:hotpath
func (n *NIC) onQPTimer(qs *qpState) {
	qs.timer = nil
	now := int64(n.eng.Now())
	acts := qs.conn.OnTimer(now)
	for _, seg := range acts.Segments {
		// Count only real retransmissions, not timer-driven pure acks
		// (delayed acks, window probes).
		if seg.Payload.Len() > 0 || seg.Flags.Has(tcp.SYN) || seg.Flags.Has(tcp.FIN) {
			n.stats.Retransmissions++
			n.Net.Add("tx.retransmit", 1)
		}
	}
	n.handleActions(qs, acts, nil)
	n.syncTimer(qs)
}

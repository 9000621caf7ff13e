package tcp

// This file is the receive half of the engine — the paper's receive FSM
// (Figure 2): parse, validate, run header prediction, process ACK state
// (RTT estimators, congestion window, completions) and deliver in-order
// data. Out-of-order segments are dropped and re-acked rather than
// reassembled, exactly as the prototype behaves (paper §4.1: "Support for
// out-of-order reassembly or urgent data was not included").

// Input processes one received segment. The owner has already verified the
// transport checksum (in hardware, firmware or host code, whichever the
// configuration models) and demultiplexed to this connection.
func (c *Conn) Input(seg *Segment, now int64) Actions {
	a := c.newActions()
	defer c.finishActions(&a)
	c.stats.SegsIn++
	switch c.state {
	case Closed:
		return a
	case SynSent:
		c.inputSynSent(seg, now, &a)
		return a
	case SynRcvd, Established, FinWait1, FinWait2, CloseWait, Closing, LastAck, TimeWait:
		c.inputSynchronized(seg, now, &a)
		return a
	default:
		return a
	}
}

func (c *Conn) inputSynSent(seg *Segment, now int64, a *Actions) {
	if seg.Flags.Has(RST) {
		if seg.Flags.Has(ACK) && seg.Ack == c.sndNxt.Add(1) {
			c.stats.BadSegments++
		}
		a.Reset = true
		c.toClosed(a)
		return
	}
	if !seg.Flags.Has(SYN | ACK) {
		c.stats.BadSegments++
		return
	}
	if seg.Ack != c.iss.Add(1) {
		c.stats.BadSegments++
		return
	}
	// Our SYN is acknowledged.
	c.irs = seg.Seq
	c.rcvNxt = seg.Seq.Add(1)
	c.takePeerOptions(seg, now)
	c.sndUna = seg.Ack
	c.dropAckedFlight(seg.Ack, now, a)
	c.setSndWndFromSyn(seg)
	c.state = Established
	a.Established = true
	c.rexmtDeadline = 0
	c.rtoBackoff = 0
	// Final handshake ACK; data may ride along immediately after.
	c.sendAck(now, a)
	c.output(now, a)
}

func (c *Conn) inputSynchronized(seg *Segment, now int64, a *Actions) {
	// RFC 1323 PAWS check.
	if c.tsOK && seg.HasTS && c.tsRecent != 0 && int32(seg.TSVal-c.tsRecent) < 0 {
		if now-c.tsRecentTime < 24*24*3600*1e9 {
			c.stats.BadSegments++
			c.sendAck(now, a)
			return
		}
	}

	// Sequence acceptability (RFC 793 p.69).
	wnd := c.advertisableWindow()
	segLen := seg.SegLen()
	acceptable := false
	switch {
	case segLen == 0 && wnd == 0:
		acceptable = seg.Seq == c.rcvNxt
	case segLen == 0:
		acceptable = seg.Seq.InWindow(c.rcvNxt, wnd)
	case wnd == 0:
		acceptable = false
	default:
		acceptable = seg.Seq.InWindow(c.rcvNxt, wnd) ||
			seg.Seq.Add(segLen-1).InWindow(c.rcvNxt, wnd)
	}
	// A retransmission that ends exactly at rcvNxt is a pure duplicate —
	// common after a lost ACK; re-ack it.
	if !acceptable && seg.Seq.Add(segLen) == c.rcvNxt && segLen > 0 {
		acceptable = false
	}
	// Zero-window leniency: a dataless segment at exactly rcvNxt (a bare
	// FIN, or a window update sequenced past one) consumes no receive
	// buffer, so take it even when the window is closed. A send-only peer
	// that never posts receive WRs advertises a zero window for its whole
	// life (record mode derives the window from posted buffers); without
	// this its half of every close handshake is unacceptable and both ends
	// retransmit to exhaustion.
	if !acceptable && seg.Seq == c.rcvNxt && seg.Payload.Len() == 0 {
		acceptable = true
	}
	if !acceptable {
		if !seg.Flags.Has(RST) {
			// RFC 793's special allowance: "If the RCV.WND is zero, no
			// segments will be acceptable, but special allowance should be
			// made to accept valid ACKs". The ACK field still acknowledges
			// flight data — a zero-window peer must complete our sends and
			// advance our closing states even while we refuse its sequence
			// space.
			if seg.Flags.Has(ACK) {
				c.processAck(seg, now, a)
			}
			c.sendAck(now, a)
		}
		c.stats.BadSegments++
		return
	}

	if seg.Flags.Has(RST) {
		a.Reset = true
		c.toClosed(a)
		return
	}
	if seg.Flags.Has(SYN) && seg.Seq != c.irs {
		// SYN in window: fatal per RFC 793.
		a.Reset = true
		c.toClosed(a)
		return
	}
	if !seg.Flags.Has(ACK) {
		return
	}

	// Header prediction (Stevens & Wright §28.4; the paper's common-case
	// assumption): in ESTABLISHED, in-order, no flags beyond ACK/PSH,
	// window unchanged.
	if c.state == Established && seg.Seq == c.rcvNxt &&
		seg.Flags&(SYN|FIN|RST|URG) == 0 &&
		int(seg.Wnd)<<c.sndScale == c.sndWnd {
		if segLen == 0 && seg.Ack.Gt(c.sndUna) && seg.Ack.Leq(c.sndNxt) {
			c.stats.FastPathAck++
		} else if segLen > 0 && seg.Ack == c.sndUna {
			c.stats.FastPathData++
		} else {
			c.stats.SlowPath++
		}
	} else {
		c.stats.SlowPath++
	}

	if c.tsOK && seg.HasTS && seg.Seq.Leq(c.rcvNxt) {
		c.tsRecent = seg.TSVal
		c.tsRecentTime = now
	}

	c.processAck(seg, now, a)

	if c.state == SynRcvd {
		return // processAck either established us or dropped the segment
	}

	// Deliver payload.
	if segLen > 0 && seg.Payload.Len() > 0 {
		c.processData(seg, now, a)
	}

	// FIN processing.
	if seg.Flags.Has(FIN) && seg.Seq.Add(seg.Payload.Len()) == c.rcvNxt {
		c.processFin(now, a)
	}

	// Respond to a window probe: a pure ACK received while our advertised
	// window has grown since the peer last heard from us gets a window
	// re-announcement (record mode probes cannot carry probe bytes). The
	// comparison is in scaled units — what the peer can actually observe —
	// so re-announcements terminate.
	if segLen == 0 && seg.Payload.Len() == 0 && !seg.Flags.Has(FIN|SYN|RST) &&
		c.advertisableWindow()>>c.rcvScale > c.lastAdvWnd>>c.rcvScale {
		c.sendAck(now, a)
	}

	c.output(now, a)
}

// processAck handles the acknowledgment field: completions, RTT samples,
// congestion control, dup-ack fast retransmit, and state advances for
// SYN_RCVD and the closing states.
func (c *Conn) processAck(seg *Segment, now int64, a *Actions) {
	if c.state == SynRcvd {
		if seg.Ack == c.iss.Add(1) {
			c.sndUna = seg.Ack
			c.dropAckedFlight(seg.Ack, now, a)
			c.state = Established
			a.Established = true
			c.rexmtDeadline = 0
			c.rtoBackoff = 0
			c.updateSndWnd(seg)
			c.output(now, a)
		} else {
			c.stats.BadSegments++
		}
		return
	}

	ack := seg.Ack
	switch {
	case ack.Leq(c.sndUna):
		// Duplicate ACK. Counts toward fast retransmit only if it carries
		// no data or window change and we have data outstanding.
		if ack == c.sndUna && seg.Payload.Len() == 0 &&
			int(seg.Wnd)<<c.sndScale == c.sndWnd && c.sndNxt != c.sndUna {
			c.stats.DupAcksIn++
			c.dupAcks++
			if c.dupAcks == 3 {
				c.fastRetransmit(now, a)
			} else if c.dupAcks > 3 && c.inFastRecovery {
				c.cwnd += c.sndMSS // inflate
				c.output(now, a)
			}
		}
	case ack.Gt(c.sndNxt):
		// Acks data we never sent.
		c.stats.BadSegments++
		c.sendAck(now, a)
		return
	default:
		acked := ack.Diff(c.sndUna)
		c.sndUna = ack
		c.rtoBackoff = 0
		c.sampleRTT(seg, now)
		partial := c.congAvoidOnAck(acked, ack)
		c.dropAckedFlight(ack, now, a)
		if partial && c.flight.Len() > 0 {
			// NewReno: a partial ack during fast recovery means the next
			// hole; retransmit it immediately. Vital here because the
			// receiver keeps no out-of-order data (paper §4.1), so every
			// segment behind a loss must be resent.
			c.retransmitHead(now, a)
		}
		if c.flight.Len() == 0 {
			c.rexmtDeadline = 0
		} else {
			c.armRexmt(now)
		}
		c.dupAcks = 0
		// Closing-state advances once our FIN is acknowledged.
		if c.finSent && ack.Gt(c.finSeq) {
			switch c.state {
			case FinWait1:
				c.state = FinWait2
			case Closing:
				c.enterTimeWait(now)
			case LastAck:
				c.toClosed(a)
				return
			}
		}
	}
	c.updateSndWnd(seg)
	c.output(now, a)
}

// sampleRTT extracts a round-trip sample, preferring the RFC 1323
// timestamp echo; otherwise it times the head flight segment if it was
// never retransmitted (Karn's rule).
func (c *Conn) sampleRTT(seg *Segment, now int64) {
	if c.tsOK && seg.HasTS && seg.TSEcr != 0 {
		ms := int64(tsClock(now) - seg.TSEcr)
		if ms >= 0 {
			c.rtt.Sample(ms * 1e6)
			c.stats.RTTSamples++
		}
		return
	}
	if c.flight.Len() > 0 {
		head := c.flight.Front()
		if !head.rexmitted && head.seq.Add(head.segLen()).Leq(seg.Ack) {
			c.rtt.Sample(now - head.sentAt)
			c.stats.RTTSamples++
		}
	}
}

// congAvoidOnAck grows cwnd per Reno on new acknowledgment. It reports
// whether the ack was a NewReno partial ack (recovery continues).
func (c *Conn) congAvoidOnAck(acked int, ack Seq) bool {
	if c.inFastRecovery {
		if ack.Geq(c.recoverSeq) {
			c.inFastRecovery = false
			c.cwnd = c.ssthresh // deflate
		} else {
			// Partial ack during recovery: stay in recovery.
			return true
		}
	}
	if c.cwnd < c.ssthresh {
		grow := acked
		if grow > c.sndMSS {
			grow = c.sndMSS
		}
		c.cwnd += grow
	} else {
		add := c.sndMSS * c.sndMSS / c.cwnd
		if add < 1 {
			add = 1
		}
		c.cwnd += add
	}
	return false
}

// dropAckedFlight removes fully acknowledged segments from the
// retransmission queue, trimming a partially acked head (stream mode).
func (c *Conn) dropAckedFlight(ack Seq, now int64, a *Actions) {
	for c.flight.Len() > 0 {
		f := c.flight.Front()
		end := f.seq.Add(f.segLen())
		if end.Leq(ack) {
			a.AckedBytes += f.payload.Len()
			if f.isRecord {
				a.AckedRecords++
			}
			c.flight.Pop()
			continue
		}
		if f.seq.Lt(ack) && f.payload.Len() > 0 {
			// Partial ack inside a stream segment: trim.
			cut := ack.Diff(f.seq)
			if cut > 0 && cut < f.payload.Len() {
				a.AckedBytes += cut
				f.payload = f.payload.Slice(cut, f.payload.Len())
				f.seq = ack
			}
		}
		break
	}
}

// fastRetransmit performs Reno fast retransmit/recovery on the third
// duplicate ACK.
func (c *Conn) fastRetransmit(now int64, a *Actions) {
	if c.flight.Len() == 0 {
		return
	}
	c.stats.FastRetransmits++
	flightBytes := c.sndNxt.Diff(c.sndUna)
	half := flightBytes / 2
	if half < 2*c.sndMSS {
		half = 2 * c.sndMSS
	}
	c.ssthresh = half
	c.inFastRecovery = true
	c.recoverSeq = c.sndNxt
	c.retransmitHead(now, a)
	c.cwnd = c.ssthresh + 3*c.sndMSS
}

// retransmitHead re-sends the first unacknowledged segment.
func (c *Conn) retransmitHead(now int64, a *Actions) {
	f := c.flight.Front()
	f.rexmitted = true
	f.sentAt = now
	c.stats.Retransmits++
	seg := c.makeSeg(f.flags|ACK, f.payload)
	if c.state == SynSent {
		// Our own pre-established SYN: nothing to acknowledge yet. This is
		// the ONLY flight SYN that retransmits without ACK — pushFlight
		// masks stored flags to SYN|FIN, so testing f.flags for a missing
		// ACK would also strip it from a SYN_RCVD peer's SYN|ACK, leaving
		// the active opener deaf to every handshake retransmission.
		seg.Flags = f.flags
		seg.Ack = 0
		seg.MSS = uint16(c.cfg.MSS)
		if c.cfg.WindowScale {
			seg.WScale = int8(c.rcvScale)
		}
	} else if f.flags.Has(SYN) {
		seg.MSS = uint16(c.cfg.MSS)
		if c.wsOK {
			seg.WScale = int8(c.rcvScale)
		}
	}
	seg.Seq = f.seq
	c.stampTS(seg, now)
	c.emit(a, seg)
}

// processData delivers in-order payload and drops everything else,
// emitting an immediate duplicate ACK for out-of-order arrivals so the
// sender's fast-retransmit machinery engages.
func (c *Conn) processData(seg *Segment, now int64, a *Actions) {
	switch {
	case seg.Seq == c.rcvNxt:
		n := seg.Payload.Len()
		avail := c.advertisableWindow()
		if n > avail && c.cfg.Mode == Stream {
			if avail == 0 {
				c.stats.OutOfOrderDrops++
				c.sendAck(now, a)
				return
			}
			seg = &Segment{Flags: seg.Flags &^ FIN, Seq: seg.Seq, Ack: seg.Ack, Wnd: seg.Wnd, Payload: seg.Payload.Slice(0, avail)}
			n = avail
		}
		c.rcvNxt = c.rcvNxt.Add(n)
		c.stats.DataSegsIn++
		c.stats.BytesIn += uint64(n)
		if c.cfg.Mode == Stream {
			c.rcvBufUsed += n
		}
		a.Delivered = append(a.Delivered, seg.Payload)
		c.scheduleAck(now)
	case seg.Seq.Gt(c.rcvNxt):
		// Out of order: no reassembly (paper §4.1); drop and dup-ack.
		c.stats.OutOfOrderDrops++
		c.sendAck(now, a)
	default:
		// Old duplicate (fully or partially below rcvNxt). In record mode
		// boundaries align so it is a pure duplicate; in stream mode any
		// new tail would arrive again via retransmission. Re-ack.
		c.sendAck(now, a)
	}
}

// scheduleAck marks an ACK owed for received data, honoring delayed acks
// when configured (ack at least every second segment, else on timer).
func (c *Conn) scheduleAck(now int64) {
	c.ackPending = true
	if c.cfg.DelayedAck {
		c.delackCount++
		if c.delackCount < 2 {
			if c.delackDeadline == 0 {
				c.delackDeadline = now + c.cfg.DelAckTimeout
			}
			return
		}
	}
	c.delackDeadline = 0
}

// processFin consumes the peer's FIN.
func (c *Conn) processFin(now int64, a *Actions) {
	if c.finRcvd {
		return
	}
	c.finRcvd = true
	c.rcvNxt = c.rcvNxt.Add(1)
	a.PeerClosed = true
	c.ackPending = true
	c.delackDeadline = 0
	c.delackCount = 2 // force immediate ack of FIN
	switch c.state {
	case Established:
		c.state = CloseWait
	case FinWait1:
		if c.finSent && c.sndUna.Gt(c.finSeq) {
			c.enterTimeWait(now)
		} else {
			c.state = Closing
		}
	case FinWait2:
		c.enterTimeWait(now)
	}
}

func (c *Conn) enterTimeWait(now int64) {
	c.state = TimeWait
	c.cancelDataTimers()
	c.timewaitDeadline = now + c.cfg.TimeWaitDur
}

package tcp

import "repro/internal/buf"

// This file is the transmit half of the engine — the moral equivalent of
// the paper's schedule/transmit FSM core (Figure 2): pick sendable data
// under min(cwnd, peer window), build segments, retain them for
// retransmission, and manage the retransmit/persist timers.

// usableWindow reports how many payload bytes may enter the network now.
func (c *Conn) usableWindow() int {
	wnd := c.sndWnd
	if c.cwnd < wnd {
		wnd = c.cwnd
	}
	inFlight := c.sndNxt.Diff(c.sndUna)
	u := wnd - inFlight
	if u < 0 {
		u = 0
	}
	return u
}

// pushFlight retains a transmitted segment for retransmission and advances
// sndNxt over the sequence space it consumes.
func (c *Conn) pushFlight(seg *Segment, now int64, isRecord bool) {
	if isRecord {
		c.flight.Reserve(int(c.recordDepth))
	}
	f := flightSeg{payload: seg.Payload, sentAt: now, seq: seg.Seq, flags: seg.Flags & (SYN | FIN), isRecord: isRecord}
	c.flight.Push(f)
	c.sndNxt = c.sndNxt.Add(f.segLen())
}

// output transmits whatever the current windows allow: queued records or
// stream bytes, then a queued FIN, then any pending pure ACK.
func (c *Conn) output(now int64, a *Actions) {
	if c.state == Established || c.state == CloseWait || c.state == FinWait1 ||
		c.state == Closing || c.state == LastAck {
		if c.cfg.Mode == Record {
			c.outputRecords(now, a)
		} else {
			c.outputStream(now, a)
		}
		c.outputFin(now, a)
	}
	if c.ackPending {
		if c.cfg.DelayedAck && c.delackCount < 2 && c.delackDeadline != 0 {
			// Hold for the delayed-ack timer or a second segment.
		} else {
			c.sendAck(now, a)
		}
	}
	c.managePersist(now)
	if c.flight.Len() > 0 && c.rexmtDeadline == 0 {
		c.armRexmt(now)
	}
}

// outputRecords sends whole queued messages, one segment each. A message
// may exceed the usable window only when nothing is in flight: with
// arbitrary-size segments the window must admit at least one message or
// the connection would deadlock (mirrors TCP's always-send-one-MSS rule).
func (c *Conn) outputRecords(now int64, a *Actions) {
	for c.pending.Len() > 0 {
		rec := *c.pending.Front()
		usable := c.usableWindow()
		if rec.Len() > usable {
			if c.sndNxt != c.sndUna {
				return // something in flight; wait for acks
			}
			// Nothing in flight: allowed only if the peer's whole window
			// (not cwnd) could ever admit it, else wait for window update.
			// The advertisement is truncated to the window-scale granularity,
			// so credit the peer the up-to-2^scale-1 bytes it cannot express:
			// a record exactly the size of the peer's posted buffer would
			// otherwise deadlock once the window shrinks to one message.
			// Record-mode delivery is WR-driven, so the overshoot is safe.
			if rec.Len() > c.sndWnd+(1<<c.sndScale-1) {
				return
			}
		}
		c.pending.Pop()
		c.pendingLen -= rec.Len()
		seg := c.makeSeg(ACK|PSH, rec)
		seg.Seq = c.sndNxt
		c.stampTS(seg, now)
		c.pushFlight(seg, now, true)
		c.emit(a, seg)
	}
}

// outputStream sends MSS-sized chunks of the byte stream, applying Nagle
// unless NoDelay is set.
func (c *Conn) outputStream(now int64, a *Actions) {
	for c.pendingLen > 0 {
		usable := c.usableWindow()
		n := c.pendingLen
		if n > c.sndMSS {
			n = c.sndMSS
		}
		if n > usable {
			if usable == 0 || c.sndNxt != c.sndUna {
				// Sender-side SWS avoidance: send a short segment only if
				// it empties the queue and nothing is outstanding.
				return
			}
			n = usable
		}
		if n < c.sndMSS && n < c.pendingLen {
			return // never send a runt that leaves bytes behind
		}
		if !c.cfg.NoDelay && n < c.sndMSS && c.sndNxt != c.sndUna {
			return // Nagle: one sub-MSS segment in flight at a time
		}
		payload := c.takePending(n)
		flags := ACK
		if c.pendingLen == 0 {
			flags |= PSH
		}
		seg := c.makeSeg(flags, payload)
		seg.Seq = c.sndNxt
		c.stampTS(seg, now)
		c.pushFlight(seg, now, false)
		c.emit(a, seg)
	}
}

// takePending removes n bytes from the head of the stream send queue. The
// common cases — the head entry covers the request exactly or with bytes to
// spare — complete without allocating; only a take that spans queue entries
// builds a parts slice for buf.Concat, on the stack unless it spans more
// than eight.
func (c *Conn) takePending(n int) buf.Buf {
	head := c.pending.Front()
	if n < head.Len() {
		out := head.Slice(0, n)
		*head = head.Slice(n, head.Len())
		c.pendingLen -= n
		return out
	}
	if n == head.Len() {
		b, _ := c.pending.Pop()
		c.pendingLen -= n
		return b
	}
	var scratch [8]buf.Buf
	parts := scratch[:0]
	got := 0
	for got < n {
		head := c.pending.Front()
		take := n - got
		if take >= head.Len() {
			parts = append(parts, *head)
			got += head.Len()
			c.pending.Pop()
		} else {
			parts = append(parts, head.Slice(0, take))
			*head = head.Slice(take, head.Len())
			got += take
		}
	}
	c.pendingLen -= n
	return buf.Concat(parts...)
}

// outputFin transmits the queued FIN once all data is out.
func (c *Conn) outputFin(now int64, a *Actions) {
	if !c.finQueued || c.finSent || c.pendingLen > 0 {
		return
	}
	seg := c.makeSeg(FIN|ACK, buf.Empty)
	seg.Seq = c.sndNxt
	c.stampTS(seg, now)
	c.finSeq = c.sndNxt
	c.finSent = true
	c.pushFlight(seg, now, false)
	c.emit(a, seg)
}

// windowBlocked reports whether queued data cannot make progress until the
// peer opens its window: nothing in flight and the window cannot admit the
// head of the queue (for records, the whole message; for a stream, any byte).
func (c *Conn) windowBlocked() bool {
	if c.pendingLen == 0 || c.sndNxt != c.sndUna {
		return false
	}
	if c.cfg.Mode == Record {
		// Mirror outputRecords' nothing-in-flight escape, including the
		// window-scale truncation credit.
		rec := c.pending.Front()
		return rec != nil && rec.Len() > c.sndWnd+(1<<c.sndScale-1)
	}
	return c.sndWnd == 0
}

// managePersist arms the persist timer when data waits on an inadequate
// send window, so a lost window update cannot deadlock the connection.
func (c *Conn) managePersist(now int64) {
	blocked := c.windowBlocked()
	if blocked && c.persistDeadline == 0 {
		c.persistBackoff = 0
		c.persistDeadline = now + c.rtt.BackedOffRTO(int(c.persistBackoff))
	}
	if !blocked {
		c.persistDeadline = 0
	}
}

// updateSndWnd applies a peer window advertisement per RFC 793's WL1/WL2
// rules.
func (c *Conn) updateSndWnd(seg *Segment) {
	wnd := int(seg.Wnd) << c.sndScale
	if seg.Flags.Has(SYN) {
		wnd = int(seg.Wnd) // SYN windows are unscaled
	}
	if c.sndWl1.Lt(seg.Seq) || (c.sndWl1 == seg.Seq && c.sndWl2.Leq(seg.Ack)) {
		c.sndWnd = wnd
		c.sndWl1 = seg.Seq
		c.sndWl2 = seg.Ack
	}
}

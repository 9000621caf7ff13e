package tcp

import "repro/internal/buf"

// Timer management. The engine exposes a single earliest deadline; the
// owner (NIC firmware transmit FSM, or the host stack's timer wheel) keeps
// one timer per connection and calls OnTimer when it fires. This mirrors
// the paper's transmit FSM, which "additionally monitors for
// timeout/retransmit events pending on a QP" (§3.1).

// NextTimeout reports the earliest pending timer deadline in nanoseconds.
// ok is false when no timer is armed.
func (c *Conn) NextTimeout() (deadline int64, ok bool) {
	min := int64(0)
	for _, d := range [...]int64{c.rexmtDeadline, c.persistDeadline, c.delackDeadline, c.timewaitDeadline} {
		if d != 0 && (min == 0 || d < min) {
			min = d
		}
	}
	return min, min != 0
}

// OnTimer dispatches every timer whose deadline has passed.
func (c *Conn) OnTimer(now int64) Actions {
	a := c.newActions()
	defer c.finishActions(&a)
	if d := c.rexmtDeadline; d != 0 && d <= now {
		c.rexmtDeadline = 0
		c.onRexmtTimeout(now, &a)
	}
	if d := c.persistDeadline; d != 0 && d <= now {
		c.persistDeadline = 0
		c.onPersistTimeout(now, &a)
	}
	if d := c.delackDeadline; d != 0 && d <= now {
		c.delackDeadline = 0
		if c.ackPending {
			c.stats.DelayedAcks++
			c.sendAck(now, &a)
		}
	}
	if d := c.timewaitDeadline; d != 0 && d <= now {
		c.timewaitDeadline = 0
		c.toClosed(&a)
	}
	return a
}

// armRexmt (re)arms the retransmission timer from now.
func (c *Conn) armRexmt(now int64) {
	c.rexmtDeadline = now + c.rtt.BackedOffRTO(c.rtoBackoff)
}

// onRexmtTimeout retransmits the oldest outstanding segment with
// exponential backoff and collapses the congestion window (RFC 2581).
func (c *Conn) onRexmtTimeout(now int64, a *Actions) {
	if c.flight.Len() == 0 {
		return
	}
	c.stats.Timeouts++
	c.rtoBackoff++
	limit := c.cfg.MaxRetries
	if c.state == SynSent || c.state == SynRcvd {
		limit = c.cfg.SynMaxRetries
	}
	if c.rtoBackoff > limit {
		// Give up: the peer is unreachable within the retry budget.
		c.stats.RetryExceeded++
		a.RetryExceeded = true
		c.toClosed(a)
		return
	}
	flightBytes := c.sndNxt.Diff(c.sndUna)
	half := flightBytes / 2
	if half < 2*c.sndMSS {
		half = 2 * c.sndMSS
	}
	c.ssthresh = half
	c.cwnd = c.sndMSS
	c.inFastRecovery = false
	c.dupAcks = 0
	c.retransmitHead(now, a)
	c.armRexmt(now)
}

// onPersistTimeout probes an inadequate window.
func (c *Conn) onPersistTimeout(now int64, a *Actions) {
	if !c.windowBlocked() {
		return
	}
	c.stats.WindowProbes++
	if c.persistBackoff < 10 {
		c.persistBackoff++
	}
	if c.cfg.Mode == Stream {
		// Classic 1-byte window probe.
		payload := c.takePending(1)
		seg := c.makeSeg(ACK|PSH, payload)
		seg.Seq = c.sndNxt
		c.stampTS(seg, now)
		c.pushFlight(seg, now, false)
		c.emit(a, seg)
		c.armRexmt(now)
	} else {
		// Record mode cannot split a message, so probe keepalive-style: a
		// pure ACK one sequence number below sndNxt. The segment is never
		// acceptable at the receiver (RFC 793 p.69), which forces an ACK
		// reply carrying the current window. A probe at sndNxt would be
		// acceptable and could go unanswered when the peer believes its
		// last window advertisement arrived — deadlock if that ACK was the
		// frame the network dropped.
		seg := c.makeSeg(ACK, buf.Empty)
		seg.Seq = c.sndNxt.Add(-1)
		c.stampTS(seg, now)
		c.emit(a, seg)
	}
	c.persistDeadline = now + c.rtt.BackedOffRTO(c.persistBackoff)
}

// cancelDataTimers clears retransmit/persist/delack timers.
func (c *Conn) cancelDataTimers() {
	c.rexmtDeadline = 0
	c.persistDeadline = 0
	c.delackDeadline = 0
}

// cancelTimers clears every timer.
func (c *Conn) cancelTimers() {
	c.cancelDataTimers()
	c.timewaitDeadline = 0
}

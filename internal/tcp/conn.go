package tcp

import (
	"errors"
	"fmt"

	"repro/internal/buf"
	"repro/internal/pool"
)

// Mode selects how application data maps onto segments.
type Mode int

const (
	// Stream is classic byte-stream TCP with MSS segmentation, used by the
	// host-based sockets baseline.
	Stream Mode = iota
	// Record maps one application message onto exactly one TCP segment,
	// the QPIP prototype's framing: "we chose to map QP messages
	// one-for-one onto TCP segments (i.e. a segment is a message)"
	// (paper §4.1). Segments are arbitrarily sized; receive-side record
	// boundaries are segment boundaries.
	Record
)

// State is the RFC 793 connection state.
type State uint8

// Connection states.
const (
	Closed State = iota
	Listen
	SynSent
	SynRcvd
	Established
	FinWait1
	FinWait2
	CloseWait
	Closing
	LastAck
	TimeWait
)

var stateNames = [...]string{
	"CLOSED", "LISTEN", "SYN_SENT", "SYN_RCVD", "ESTABLISHED",
	"FIN_WAIT_1", "FIN_WAIT_2", "CLOSE_WAIT", "CLOSING", "LAST_ACK", "TIME_WAIT",
}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Config parameterizes a connection.
type Config struct {
	LocalPort, RemotePort uint16
	Mode                  Mode
	// MSS is the maximum segment payload we advertise (and accept). In
	// record mode it bounds the message size, since a message is a segment.
	MSS int
	// RecvWindow is the initial receive window. In stream mode it is the
	// receive buffer size; in record mode the owner drives the window from
	// posted WR capacity via SetRecvWindow (paper §5.1: "the more receive
	// buffer space posted, the larger the TCP receive window"). Zero means
	// the 64 KB default; a negative value means "start closed" — the QPIP
	// firmware uses it so no data can arrive before a receive WR is posted.
	RecvWindow int
	// MaxRecvWindow bounds how large the owner may later grow the window
	// (record mode); it sizes the negotiated window scale. Zero means
	// RecvWindow itself is the bound.
	MaxRecvWindow int
	// WindowScale and Timestamps enable the RFC 1323 extensions the
	// prototype implemented.
	WindowScale bool
	Timestamps  bool
	// DelayedAck enables receiver-side ack-every-other with a timer, as in
	// the host baseline. The QPIP firmware acks immediately.
	DelayedAck    bool
	DelAckTimeout int64 // ns; default 40 ms if zero
	// NoDelay disables Nagle in stream mode (ttcp sets TCP_NODELAY).
	NoDelay bool
	// TimeWaitDur overrides the 2*MSL TIME_WAIT duration (default 60 s).
	TimeWaitDur int64
	// MaxRetries bounds consecutive retransmission timeouts of one
	// segment before the connection gives up with Actions.RetryExceeded
	// (default 12, BSD's TCP_MAXRXTSHIFT).
	MaxRetries int
	// SynMaxRetries bounds handshake (SYN / SYN|ACK) retransmissions —
	// the connect-timeout budget (default 5). With exponential backoff
	// from the 3 s initial RTO the budget caps a failed active open.
	SynMaxRetries int
	// ISS fixes the initial send sequence number (deterministic tests).
	ISS Seq
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.MSS <= 0 {
		out.MSS = 1460
	}
	switch {
	case out.RecvWindow == 0:
		out.RecvWindow = 64 * 1024
	case out.RecvWindow < 0:
		out.RecvWindow = 0
	}
	if out.DelAckTimeout <= 0 {
		out.DelAckTimeout = 40 * 1000 * 1000
	}
	if out.TimeWaitDur <= 0 {
		out.TimeWaitDur = 60 * 1000 * 1000 * 1000
	}
	if out.MaxRetries <= 0 {
		out.MaxRetries = 12
	}
	if out.SynMaxRetries <= 0 {
		out.SynMaxRetries = 5
	}
	return out
}

// Stats counts protocol events; the benchmark harness reads these to
// classify NIC occupancy and to sanity-check runs (e.g. zero retransmits
// expected on the loss-free SAN).
type Stats struct {
	SegsIn, SegsOut         uint64
	DataSegsIn, DataSegsOut uint64
	BytesIn, BytesOut       uint64
	AcksIn, AcksOut         uint64
	Retransmits             uint64
	FastRetransmits         uint64
	Timeouts                uint64
	DupAcksIn               uint64
	FastPathData            uint64
	FastPathAck             uint64
	SlowPath                uint64
	RetryExceeded           uint64
	OutOfOrderDrops         uint64
	BadSegments             uint64
	WindowUpdatesOut        uint64
	WindowProbes            uint64
	RTTSamples              uint64
	DelayedAcks             uint64
}

// Actions is what a Conn asks its owner to do after an API call: transmit
// segments, deliver data to the application, complete send requests. The
// owner (NIC firmware or host kernel) charges simulated CPU time for each.
// The Conn reuses the backing arrays of Segments and Delivered, which keeps
// the per-call Actions off the heap, so the owner consumes them (or copies
// what it keeps) before it calls into the Conn again.
type Actions struct {
	// Segments to transmit, in order.
	Segments []*Segment
	// Delivered holds in-order application data: whole messages in record
	// mode, byte runs in stream mode.
	Delivered []buf.Buf
	// AckedBytes is newly acknowledged payload bytes (send side).
	AckedBytes int
	// AckedRecords is the number of send-side records fully acknowledged
	// (record mode); the QPIP firmware completes one send WR per record.
	// "This WR completes when all the data for that message is
	// acknowledged by the destination" (paper §3).
	AckedRecords int
	// Established fires once when the handshake completes.
	Established bool
	// PeerClosed fires when the peer's FIN is consumed in order.
	PeerClosed bool
	// Closed fires when the connection reaches CLOSED.
	Closed bool
	// Reset fires when the connection is torn down by an RST.
	Reset bool
	// RetryExceeded fires when the retransmission retry budget is
	// exhausted (the peer is unreachable); the connection is closed.
	// Distinct from Reset so owners can surface a timeout, not a refusal.
	RetryExceeded bool
}

// flightSeg is a transmitted, unacknowledged segment retained for
// retransmission. The retransmission queue holds it by value.
type flightSeg struct {
	payload   buf.Buf
	sentAt    int64
	seq       Seq
	flags     Flags // SYN/FIN bits that consumed sequence space
	rexmitted bool
	isRecord  bool
}

func (f *flightSeg) segLen() int {
	n := f.payload.Len()
	if f.flags.Has(SYN) {
		n++
	}
	if f.flags.Has(FIN) {
		n++
	}
	return n
}

// Conn is a TCP transmission control block plus send/receive machinery.
// It is pure: no goroutines, no clocks, no I/O. All methods take the
// current time in nanoseconds and return Actions for the owner to execute.
//
// A host keeps one Conn per connection, thousands at once on an adapter,
// so the fields are laid out to keep a Conn within 512 bytes: the
// configuration is a shared, immutable profile, small counters are 32
// bits wide, and the flags sit together at the end.
type Conn struct {
	// cfg is the connection's profile with defaults resolved; the
	// connections an Endpoints opens from one template share it. Its
	// ports and ISS are unused: lport, rport and iss hold them.
	cfg   *Config
	stats Stats

	// pending holds application data not yet segmentized: whole records
	// in record mode, byte runs in stream mode, where a take trims the
	// head entry in place.
	pending pool.Ring[buf.Buf]
	// flight is the retransmission queue, oldest segment first.
	flight pool.Ring[flightSeg]

	// actSegs/actBufs are the retained backing arrays of the Actions
	// slices, handed out again by newActions.
	actSegs []*Segment
	actBufs []buf.Buf

	// RTT machinery.
	rtt          RTTEstimator
	tsRecentTime int64

	// Timer deadlines in ns; 0 = inactive.
	rexmtDeadline    int64
	persistDeadline  int64
	delackDeadline   int64
	timewaitDeadline int64

	pendingLen int
	sndWnd     int // peer's advertised window, scaled to bytes
	sndMSS     int // effective send MSS (min of ours and peer's)
	peerMSS    int
	rcvWnd     int // current window limit (owner-driven in record mode)
	rcvBufUsed int // stream mode: undelivered-to-app bytes
	lastAdvWnd int // window advertised in the last segment we sent

	// Congestion control (Reno).
	cwnd, ssthresh int
	dupAcks        int32

	rtoBackoff     int32
	persistBackoff int32
	delackCount    int32
	// recordDepth is the most records the owner keeps outstanding at
	// once (ReserveRecords); 0 means unknown.
	recordDepth int32

	// Send and receive sequence state (RFC 793 names).
	iss            Seq
	sndUna, sndNxt Seq
	sndWl1, sndWl2 Seq
	finSeq         Seq
	recoverSeq     Seq
	irs            Seq
	rcvNxt         Seq
	tsRecent       uint32

	lport, rport       uint16
	state              State
	sndScale, rcvScale uint8
	finQueued          bool
	finSent            bool
	finRcvd            bool
	inFastRecovery     bool
	tsOK               bool
	wsOK               bool
	ackPending         bool
}

// Errors returned by Conn methods.
var (
	ErrNotEstablished = errors.New("tcp: connection not established")
	ErrClosed         = errors.New("tcp: connection closed")
	ErrRecordTooBig   = errors.New("tcp: record exceeds send MSS")
	ErrBadState       = errors.New("tcp: operation invalid in this state")
	ErrNotSYN         = errors.New("tcp: AcceptSYN on non-SYN segment")
)

// NewConn returns a connection in CLOSED with the given configuration.
func NewConn(cfg Config) *Conn {
	prof := cfg.withDefaults()
	return newConn(&prof, cfg.LocalPort, cfg.RemotePort, cfg.ISS)
}

// newConn returns a connection in CLOSED on the resolved profile prof,
// which it shares and never writes.
func newConn(prof *Config, lport, rport uint16, iss Seq) *Conn {
	c := &Conn{cfg: prof, state: Closed, lport: lport, rport: rport, iss: iss}
	c.rcvWnd = c.cfg.RecvWindow
	scaleFor := c.cfg.RecvWindow
	if c.cfg.MaxRecvWindow > scaleFor {
		scaleFor = c.cfg.MaxRecvWindow
	}
	if c.cfg.WindowScale {
		for c.rcvScale < 14 && (scaleFor>>c.rcvScale) > 0xffff {
			c.rcvScale++
		}
	}
	return c
}

// ReserveRecords tells a record-mode connection that its owner keeps at
// most n records outstanding at once (queued or unacknowledged), as a QP's
// send depth does. The retransmission queue then grows straight to n
// entries when the first record is sent, rather than doubling while the
// window opens.
func (c *Conn) ReserveRecords(n int) { c.recordDepth = int32(n) }

// State reports the connection state.
func (c *Conn) State() State { return c.state }

// Stats returns a snapshot of the connection's counters.
func (c *Conn) Stats() Stats { return c.stats }

// SendMSS reports the effective send MSS after negotiation.
func (c *Conn) SendMSS() int { return c.sndMSS }

// Cwnd reports the current congestion window in bytes.
func (c *Conn) Cwnd() int { return c.cwnd }

// SndWnd reports the peer's last advertised (scaled) window in bytes.
func (c *Conn) SndWnd() int { return c.sndWnd }

// InFlight reports unacknowledged sequence space in bytes.
func (c *Conn) InFlight() int { return c.sndNxt.Diff(c.sndUna) }

// PendingSend reports bytes queued but not yet transmitted.
func (c *Conn) PendingSend() int { return c.pendingLen }

// Connect initiates an active open, returning the SYN to transmit.
func (c *Conn) Connect(now int64) (Actions, error) {
	a := c.newActions()
	defer c.finishActions(&a)
	if c.state != Closed {
		return a, ErrBadState
	}
	c.state = SynSent
	c.sndUna = c.iss
	c.sndNxt = c.iss
	c.sndMSS = c.cfg.MSS
	seg := c.makeSeg(SYN, buf.Empty)
	seg.Seq = c.sndNxt
	seg.Ack = 0
	seg.MSS = uint16(c.cfg.MSS)
	if c.cfg.WindowScale {
		seg.WScale = int8(c.rcvScale)
	}
	if c.cfg.Timestamps {
		seg.HasTS = true
		seg.TSVal = tsClock(now)
		seg.TSEcr = 0
	}
	c.pushFlight(seg, now, false)
	c.emit(&a, seg)
	c.armRexmt(now)
	return a, nil
}

// AcceptSYN performs a passive open: the owner demultiplexed a SYN to a
// listening port and constructed this Conn for the new connection. The
// returned actions carry the SYN|ACK. QPIP handles this entirely in the
// interface: "the handshake is handled in the interface with the host only
// being notified when the connection is established" (paper §3).
func (c *Conn) AcceptSYN(syn *Segment, now int64) (Actions, error) {
	a := c.newActions()
	defer c.finishActions(&a)
	if c.state != Closed {
		return a, ErrBadState
	}
	if !syn.Flags.Has(SYN) || syn.Flags.Has(ACK) {
		return a, ErrNotSYN
	}
	c.stats.SegsIn++
	c.state = SynRcvd
	c.irs = syn.Seq
	c.rcvNxt = syn.Seq.Add(1)
	c.takePeerOptions(syn, now)
	c.sndUna = c.iss
	c.sndNxt = c.iss

	rep := c.makeSeg(SYN|ACK, buf.Empty)
	rep.Seq = c.sndNxt
	rep.MSS = uint16(c.cfg.MSS)
	if c.wsOK {
		rep.WScale = int8(c.rcvScale)
	}
	if c.tsOK {
		rep.HasTS = true
		rep.TSVal = tsClock(now)
		rep.TSEcr = c.tsRecent
	}
	c.pushFlight(rep, now, false)
	c.emit(&a, rep)
	c.armRexmt(now)
	c.setSndWndFromSyn(syn)
	return a, nil
}

// setSndWndFromSyn initializes the send window from a SYN per RFC 793:
// SND.WND = SEG.WND (unscaled), WL1 = SEG.SEQ, WL2 = SEG.ACK.
func (c *Conn) setSndWndFromSyn(syn *Segment) {
	c.sndWnd = int(syn.Wnd)
	c.sndWl1 = syn.Seq
	c.sndWl2 = syn.Ack
}

// takePeerOptions records the peer's SYN options and completes negotiation.
func (c *Conn) takePeerOptions(syn *Segment, now int64) {
	c.peerMSS = int(syn.MSS)
	c.sndMSS = c.cfg.MSS
	if c.peerMSS > 0 && c.peerMSS < c.sndMSS {
		c.sndMSS = c.peerMSS
	}
	c.wsOK = c.cfg.WindowScale && syn.WScale >= 0
	if c.wsOK {
		c.sndScale = uint8(syn.WScale)
	} else {
		c.rcvScale = 0
	}
	c.tsOK = c.cfg.Timestamps && syn.HasTS
	if c.tsOK {
		c.tsRecent = syn.TSVal
		c.tsRecentTime = now
	}
	c.cwnd = 2 * c.sndMSS
	c.ssthresh = 1 << 30
}

// Send queues application data. In record mode p is one message that will
// occupy exactly one segment; in stream mode p joins the byte stream.
func (c *Conn) Send(p buf.Buf, now int64) (Actions, error) {
	a := c.newActions()
	defer c.finishActions(&a)
	switch c.state {
	case Established, CloseWait:
	case SynSent, SynRcvd:
		// Data may be queued before the handshake completes.
	default:
		return a, ErrBadState
	}
	if c.finQueued {
		return a, ErrClosed
	}
	if c.cfg.Mode == Record && c.sndMSS > 0 && p.Len() > c.sndMSS {
		return a, ErrRecordTooBig
	}
	c.pending.Push(p)
	c.pendingLen += p.Len()
	c.output(now, &a)
	return a, nil
}

// SetRecvWindow sets the receive window limit from posted receive buffer
// capacity (record mode). Opening the window may emit a window update.
func (c *Conn) SetRecvWindow(bytes int, now int64) Actions {
	a := c.newActions()
	defer c.finishActions(&a)
	if bytes < 0 {
		bytes = 0
	}
	c.rcvWnd = bytes
	c.maybeWindowUpdate(now, &a)
	return a
}

// AppRead tells the connection the application consumed n delivered bytes
// (stream mode), freeing receive buffer and possibly opening the window.
func (c *Conn) AppRead(n int, now int64) Actions {
	a := c.newActions()
	defer c.finishActions(&a)
	if n > c.rcvBufUsed {
		n = c.rcvBufUsed
	}
	c.rcvBufUsed -= n
	c.maybeWindowUpdate(now, &a)
	return a
}

// maybeWindowUpdate emits a pure ACK when the advertised window would grow
// by at least one MSS or half the buffer from what the peer last saw —
// receiver-side silly-window avoidance, plus the zero-to-open transition
// that record mode depends on when WRs are posted after data is in flight.
func (c *Conn) maybeWindowUpdate(now int64, a *Actions) {
	if c.state != Established && c.state != FinWait1 && c.state != FinWait2 {
		return
	}
	adv := c.advertisableWindow()
	grow := adv - c.lastAdvWnd
	threshold := c.sndMSS
	if t := c.cfg.RecvWindow / 2; t < threshold && t > 0 {
		threshold = t
	}
	if threshold <= 0 {
		threshold = 1
	}
	if (c.lastAdvWnd == 0 && adv > 0) || grow >= threshold {
		c.stats.WindowUpdatesOut++
		c.sendAck(now, a)
	}
}

// Close begins an orderly release. Queued data is sent before the FIN.
func (c *Conn) Close(now int64) (Actions, error) {
	a := c.newActions()
	defer c.finishActions(&a)
	switch c.state {
	case Established:
		c.state = FinWait1
	case CloseWait:
		c.state = LastAck
	case SynRcvd:
		c.state = FinWait1
	case SynSent:
		c.state = Closed
		a.Closed = true
		c.cancelTimers()
		return a, nil
	case Closed:
		return a, ErrClosed
	default:
		return a, ErrBadState
	}
	c.finQueued = true
	c.output(now, &a)
	return a, nil
}

// Abort tears the connection down immediately, emitting an RST if the
// connection is synchronized.
func (c *Conn) Abort(now int64) Actions {
	a := c.newActions()
	defer c.finishActions(&a)
	if c.state == Established || c.state == SynRcvd || c.state == FinWait1 ||
		c.state == FinWait2 || c.state == CloseWait || c.state == Closing || c.state == LastAck {
		seg := c.makeSeg(RST|ACK, buf.Empty)
		seg.Seq = c.sndNxt
		c.emit(&a, seg)
	}
	c.toClosed(&a)
	return a
}

func (c *Conn) toClosed(a *Actions) {
	if c.state != Closed {
		c.state = Closed
		a.Closed = true
	}
	c.cancelTimers()
	c.flight.Reset()
	c.pending.Reset()
	c.pendingLen = 0
}

// advertisableWindow computes the receive window to advertise.
func (c *Conn) advertisableWindow() int {
	w := c.rcvWnd - c.rcvBufUsed
	if w < 0 {
		w = 0
	}
	// Clamp to the maximum representable with our scale.
	max := 0xffff << c.rcvScale
	if w > max {
		w = max
	}
	return w
}

// ReuseActionBuffers(true) does nothing: every Conn reuses its Actions
// slices (see Actions). It stays only because the benchmark's probes still
// call it. Asking for no reuse panics, since an owner that keeps Actions
// across calls would read overwritten slices.
func (c *Conn) ReuseActionBuffers(on bool) {
	if !on {
		panic("tcp: a Conn always reuses its Actions slices")
	}
}

// newActions builds the Actions value for one API call on the retained
// backing arrays.
func (c *Conn) newActions() Actions {
	return Actions{Segments: c.actSegs[:0], Delivered: c.actBufs[:0]}
}

// finishActions recaptures (possibly grown) backing arrays when the call
// returns; deferred so error paths are covered too.
func (c *Conn) finishActions(a *Actions) {
	c.actSegs = a.Segments[:0]
	c.actBufs = a.Delivered[:0]
}

// makeSeg builds a segment skeleton with ports, ack, window and timestamp
// filled from current state.
func (c *Conn) makeSeg(flags Flags, payload buf.Buf) *Segment {
	seg := NewSegment()
	seg.SrcPort = c.lport
	seg.DstPort = c.rport
	seg.Flags = flags
	seg.Payload = payload
	if flags.Has(ACK) {
		seg.Ack = c.rcvNxt
	}
	adv := c.advertisableWindow()
	if flags.Has(SYN) { // SYN windows are never scaled
		if adv > 0xffff {
			adv = 0xffff
		}
		seg.Wnd = uint16(adv)
		c.lastAdvWnd = adv
	} else {
		seg.Wnd = uint16(adv >> c.rcvScale)
		c.lastAdvWnd = int(seg.Wnd) << c.rcvScale
	}
	return seg
}

// stampTS applies the timestamp option to an outgoing segment.
func (c *Conn) stampTS(seg *Segment, now int64) {
	if c.tsOK {
		seg.HasTS = true
		seg.TSVal = tsClock(now)
		seg.TSEcr = c.tsRecent
	}
}

// emit books an outgoing segment into stats and the action list.
func (c *Conn) emit(a *Actions, seg *Segment) {
	c.stats.SegsOut++
	if seg.Payload.Len() > 0 {
		c.stats.DataSegsOut++
		c.stats.BytesOut += uint64(seg.Payload.Len())
	} else if seg.Flags.Has(ACK) && !seg.Flags.Has(SYN|FIN) {
		c.stats.AcksOut++
	}
	a.Segments = append(a.Segments, seg)
	c.ackPending = false
	c.delackCount = 0
	c.delackDeadline = 0
}

// sendAck emits an immediate pure ACK.
func (c *Conn) sendAck(now int64, a *Actions) {
	seg := c.makeSeg(ACK, buf.Empty)
	seg.Seq = c.sndNxt
	c.stampTS(seg, now)
	c.emit(a, seg)
}

// tsClock converts nanoseconds to the millisecond timestamp clock used in
// the RFC 1323 option fields.
func tsClock(now int64) uint32 { return uint32(now / 1e6) }

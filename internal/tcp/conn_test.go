package tcp

import (
	"testing"

	"repro/internal/buf"
)

// TestStateString names every RFC 793 state as the traces print it, and
// a value outside the table by its number.
func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		Closed: "CLOSED", Listen: "LISTEN", SynSent: "SYN_SENT", SynRcvd: "SYN_RCVD",
		Established: "ESTABLISHED", FinWait1: "FIN_WAIT_1", FinWait2: "FIN_WAIT_2",
		CloseWait: "CLOSE_WAIT", Closing: "CLOSING", LastAck: "LAST_ACK", TimeWait: "TIME_WAIT",
		TimeWait + 1: "State(11)",
	} {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}

func TestHandshakeEstablishes(t *testing.T) {
	n := pair(t, Record, 16384, 64*1024, nil)
	if n.conns[0].State() != Established || n.conns[1].State() != Established {
		t.Fatalf("states %v / %v", n.conns[0].State(), n.conns[1].State())
	}
	if n.conns[0].SendMSS() != 16384 || n.conns[1].SendMSS() != 16384 {
		t.Errorf("negotiated MSS %d/%d, want 16384", n.conns[0].SendMSS(), n.conns[1].SendMSS())
	}
}

func TestMSSNegotiationTakesMin(t *testing.T) {
	a := NewConn(Config{LocalPort: 1, RemotePort: 2, MSS: 9000, ISS: 1})
	b := NewConn(Config{LocalPort: 2, RemotePort: 1, MSS: 1460, ISS: 2})
	n := newTestNet(t, a, b)
	n.connect()
	if a.SendMSS() != 1460 || b.SendMSS() != 1460 {
		t.Errorf("send MSS %d/%d, want 1460", a.SendMSS(), b.SendMSS())
	}
}

func TestRecordModeDeliversMessagesIntact(t *testing.T) {
	n := pair(t, Record, 16384, 256*1024, nil)
	msgs := []buf.Buf{
		buf.Pattern(1, 1),
		buf.Pattern(100, 2),
		buf.Pattern(16384, 3),
		buf.Pattern(7, 4),
	}
	for _, m := range msgs {
		n.send(0, m)
	}
	n.run(5_000_000_000)
	if len(n.delivered[1]) != len(msgs) {
		t.Fatalf("delivered %d records, want %d", len(n.delivered[1]), len(msgs))
	}
	for i, m := range msgs {
		if !buf.Equal(n.delivered[1][i], m) {
			t.Errorf("record %d corrupted: %v vs %v", i, n.delivered[1][i], m)
		}
	}
	if n.ackedRec[0] != len(msgs) {
		t.Errorf("sender completed %d records, want %d", n.ackedRec[0], len(msgs))
	}
	if got := n.conns[0].Stats().Retransmits; got != 0 {
		t.Errorf("lossless transfer had %d retransmits", got)
	}
}

func TestRecordTooBigRejected(t *testing.T) {
	n := pair(t, Record, 1000, 64*1024, nil)
	_, err := n.conns[0].Send(buf.Virtual(1001), n.now)
	if err == nil {
		t.Fatal("oversized record accepted")
	}
}

func TestStreamModeSegmentsAtMSS(t *testing.T) {
	n := pair(t, Stream, 1460, 64*1024, nil)
	n.send(0, buf.Pattern(10000, 5))
	n.run(5_000_000_000)
	if got := n.totalDelivered(1); got != 10000 {
		t.Fatalf("delivered %d bytes, want 10000", got)
	}
	for _, d := range n.delivered[1] {
		if d.Len() > 1460 {
			t.Errorf("segment payload %d exceeds MSS", d.Len())
		}
	}
	want := buf.Pattern(10000, 5).Data()
	got := n.deliveredBytes(1)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("byte %d corrupted", i)
		}
	}
}

func TestStreamBidirectional(t *testing.T) {
	n := pair(t, Stream, 1460, 64*1024, nil)
	n.send(0, buf.Pattern(5000, 1))
	n.send(1, buf.Pattern(3000, 2))
	n.run(5_000_000_000)
	if n.totalDelivered(1) != 5000 || n.totalDelivered(0) != 3000 {
		t.Fatalf("delivered %d / %d bytes", n.totalDelivered(1), n.totalDelivered(0))
	}
}

func TestWindowScaleNegotiated(t *testing.T) {
	n := pair(t, Stream, 1460, 1<<20, nil)
	if n.conns[0].rcvScale == 0 || n.conns[1].sndScale == 0 {
		t.Errorf("window scale not negotiated: rcvScale=%d sndScale=%d",
			n.conns[0].rcvScale, n.conns[1].sndScale)
	}
	// Large window must survive the 16-bit field via scaling.
	n.send(0, buf.Virtual(300_000))
	n.run(10_000_000_000)
	if got := n.totalDelivered(1); got != 300_000 {
		t.Fatalf("delivered %d bytes, want 300000", got)
	}
}

func TestWindowScaleDisabledWhenPeerLacksIt(t *testing.T) {
	a := NewConn(Config{LocalPort: 1, RemotePort: 2, MSS: 1460, WindowScale: true, RecvWindow: 1 << 20, ISS: 1})
	b := NewConn(Config{LocalPort: 2, RemotePort: 1, MSS: 1460, WindowScale: false, ISS: 2})
	n := newTestNet(t, a, b)
	n.connect()
	if a.rcvScale != 0 {
		t.Errorf("a kept rcvScale %d with non-scaling peer", a.rcvScale)
	}
}

func TestTimestampsProduceRTTSamples(t *testing.T) {
	n := pair(t, Record, 16384, 256*1024, nil)
	for i := 0; i < 10; i++ {
		n.send(0, buf.Virtual(1000))
		n.run(5_000_000_000)
	}
	if got := n.conns[0].Stats().RTTSamples; got == 0 {
		t.Error("no RTT samples collected")
	}
}

func TestRecvWindowStartsClosedAndOpens(t *testing.T) {
	// QPIP semantics: the receiver's window derives from posted WR space;
	// with nothing posted the sender must not transmit.
	n := pair(t, Record, 16384, 256*1024, func(c *Config) {
		if c.LocalPort == 2000 { // the passive side
			c.RecvWindow = -1 // start closed
			c.MaxRecvWindow = 256 * 1024
		}
	})
	n.send(0, buf.Pattern(4096, 9))
	n.run(100_000_000) // 100 ms: nothing should arrive
	if len(n.delivered[1]) != 0 {
		t.Fatalf("data delivered through closed window")
	}
	// Receiver posts buffer space.
	n.apply(1, n.conns[1].SetRecvWindow(64*1024, n.now))
	n.run(5_000_000_000)
	if len(n.delivered[1]) != 1 {
		t.Fatalf("delivered %d records after window opened, want 1", len(n.delivered[1]))
	}
	if n.ackedRec[0] != 1 {
		t.Errorf("sender completions = %d, want 1", n.ackedRec[0])
	}
}

func TestFlowControlHonorsWindow(t *testing.T) {
	// Small receive window, large transfer: sender must pace by window.
	n := pair(t, Stream, 1460, 8*1024, nil)
	n.send(0, buf.Virtual(100_000))
	// Simulate app reading as data arrives: run in steps, consuming.
	for i := 0; i < 2000 && n.totalDelivered(1) < 100_000; i++ {
		n.run(50_000_000)
		// App consumes everything delivered so far.
		pendingRead := n.conns[1].rcvBufUsed
		if pendingRead > 0 {
			n.apply(1, n.conns[1].AppRead(pendingRead, n.now))
		}
	}
	if got := n.totalDelivered(1); got != 100_000 {
		t.Fatalf("delivered %d bytes, want 100000", got)
	}
	if rx := n.conns[1].Stats().BytesIn; rx != 100_000 {
		t.Errorf("receiver counted %d bytes in (duplicates mean window overrun)", rx)
	}
}

func TestLostDataSegmentRecoversByTimeout(t *testing.T) {
	n := pair(t, Record, 16384, 256*1024, nil)
	dropped := false
	n.drop = func(from, idx int, seg *Segment) bool {
		if from == 0 && seg.Payload.Len() > 0 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	n.send(0, buf.Pattern(2000, 7))
	n.run(20_000_000_000)
	if !dropped {
		t.Fatal("loss script never fired")
	}
	if len(n.delivered[1]) != 1 || !buf.Equal(n.delivered[1][0], buf.Pattern(2000, 7)) {
		t.Fatalf("record not recovered after loss: %d delivered", len(n.delivered[1]))
	}
	st := n.conns[0].Stats()
	if st.Timeouts == 0 && st.FastRetransmits == 0 {
		t.Error("no retransmission recorded despite loss")
	}
	if n.ackedRec[0] != 1 {
		t.Errorf("completions = %d, want 1", n.ackedRec[0])
	}
}

func TestFastRetransmitOnDupAcks(t *testing.T) {
	n := pair(t, Stream, 1000, 256*1024, nil)
	// Warm up so cwnd can hold several segments; fast retransmit needs
	// at least three segments in flight behind the loss.
	n.send(0, buf.Virtual(50_000))
	n.run(10_000_000_000)
	armed, droppedOnce := true, false
	n.drop = func(from, idx int, seg *Segment) bool {
		// Drop the first transmission of the next data segment; the
		// segments behind it generate the dup acks.
		if armed && !droppedOnce && from == 0 && seg.Payload.Len() > 0 {
			droppedOnce = true
			return true
		}
		return false
	}
	n.send(0, buf.Virtual(20_000))
	n.run(30_000_000_000)
	if got := n.totalDelivered(1); got != 70_000 {
		t.Fatalf("delivered %d bytes, want 70000", got)
	}
	st := n.conns[0].Stats()
	if st.FastRetransmits == 0 {
		t.Errorf("expected fast retransmit; stats: %+v", st)
	}
}

func TestLostAckRecovered(t *testing.T) {
	n := pair(t, Record, 16384, 256*1024, nil)
	nAcks := 0
	n.drop = func(from, idx int, seg *Segment) bool {
		if from == 1 && seg.Payload.Len() == 0 && nAcks == 0 {
			nAcks++
			return true
		}
		return false
	}
	n.send(0, buf.Pattern(500, 3))
	n.run(20_000_000_000)
	if len(n.delivered[1]) != 1 {
		t.Fatalf("delivered %d records", len(n.delivered[1]))
	}
	if n.ackedRec[0] != 1 {
		t.Errorf("sender never completed after lost ack (completions=%d)", n.ackedRec[0])
	}
	// Receiver must not deliver the retransmitted duplicate twice.
	if rx := n.conns[1].Stats().DataSegsIn; rx != 1 {
		t.Errorf("receiver counted %d data segments, want 1 (dup delivered?)", rx)
	}
}

func TestOutOfOrderDroppedNotReassembled(t *testing.T) {
	// Drop segment 2 of 5; later segments must be discarded (no
	// reassembly, paper §4.1) and eventually retransmitted in order.
	n := pair(t, Stream, 1000, 256*1024, nil)
	droppedOnce := false
	n.drop = func(from, idx int, seg *Segment) bool {
		if !droppedOnce && from == 0 && seg.Seq == Seq(101+1000) && seg.Payload.Len() > 0 && !seg.Flags.Has(SYN) {
			droppedOnce = true
			return true
		}
		return false
	}
	n.send(0, buf.Pattern(5000, 8))
	n.run(30_000_000_000)
	got := n.deliveredBytes(1)
	want := buf.Pattern(5000, 8).Data()
	if len(got) != len(want) {
		t.Fatalf("delivered %d bytes, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("byte %d corrupted after OOO recovery", i)
		}
	}
	if n.conns[1].Stats().OutOfOrderDrops == 0 {
		t.Error("no out-of-order drops recorded; loss script broken?")
	}
}

func TestCloseHandshakeBothSides(t *testing.T) {
	n := pair(t, Record, 16384, 64*1024, nil)
	n.send(0, buf.Pattern(100, 1))
	n.run(5_000_000_000)
	a, err := n.conns[0].Close(n.now)
	if err != nil {
		t.Fatal(err)
	}
	n.apply(0, a)
	n.run(5_000_000_000)
	if !n.peerFin[1] {
		t.Fatal("peer never saw FIN")
	}
	if n.conns[1].State() != CloseWait {
		t.Fatalf("passive closer state %v, want CLOSE_WAIT", n.conns[1].State())
	}
	a, err = n.conns[1].Close(n.now)
	if err != nil {
		t.Fatal(err)
	}
	n.apply(1, a)
	n.run(5_000_000_000)
	if n.conns[0].State() != TimeWait {
		t.Errorf("active closer state %v, want TIME_WAIT", n.conns[0].State())
	}
	if !n.closed[1] {
		t.Error("passive closer never reached CLOSED")
	}
	// TIME_WAIT expires.
	n.run(200_000_000_000)
	if n.conns[0].State() != Closed {
		t.Errorf("TIME_WAIT never expired: %v", n.conns[0].State())
	}
}

func TestCloseFlushesQueuedData(t *testing.T) {
	n := pair(t, Record, 16384, 256*1024, nil)
	for i := 0; i < 5; i++ {
		n.send(0, buf.Pattern(8000, byte(i)))
	}
	a, err := n.conns[0].Close(n.now)
	if err != nil {
		t.Fatal(err)
	}
	n.apply(0, a)
	n.run(10_000_000_000)
	if len(n.delivered[1]) != 5 {
		t.Fatalf("delivered %d records before FIN, want 5", len(n.delivered[1]))
	}
	if !n.peerFin[1] {
		t.Error("FIN not delivered after data")
	}
}

func TestSimultaneousClose(t *testing.T) {
	n := pair(t, Record, 16384, 64*1024, nil)
	a0, _ := n.conns[0].Close(n.now)
	a1, _ := n.conns[1].Close(n.now)
	n.apply(0, a0)
	n.apply(1, a1)
	n.run(300_000_000_000)
	if n.conns[0].State() != Closed || n.conns[1].State() != Closed {
		t.Errorf("states after simultaneous close: %v / %v",
			n.conns[0].State(), n.conns[1].State())
	}
}

func TestAbortSendsRST(t *testing.T) {
	n := pair(t, Record, 16384, 64*1024, nil)
	n.apply(0, n.conns[0].Abort(n.now))
	n.run(5_000_000_000)
	if !n.reset[1] {
		t.Error("peer did not observe RST")
	}
	if n.conns[1].State() != Closed {
		t.Errorf("peer state %v after RST, want CLOSED", n.conns[1].State())
	}
}

func TestSendAfterCloseFails(t *testing.T) {
	n := pair(t, Record, 16384, 64*1024, nil)
	a, _ := n.conns[0].Close(n.now)
	n.apply(0, a)
	if _, err := n.conns[0].Send(buf.Virtual(10), n.now); err == nil {
		t.Error("Send after Close succeeded")
	}
}

func TestHeaderPredictionFastPathDominatesBulk(t *testing.T) {
	n := pair(t, Record, 16384, 1<<20, nil)
	for i := 0; i < 50; i++ {
		n.send(0, buf.Virtual(16000))
		n.run(2_000_000_000)
	}
	st0 := n.conns[0].Stats() // sender sees pure acks
	st1 := n.conns[1].Stats() // receiver sees in-order data
	if st0.FastPathAck == 0 {
		t.Errorf("sender fast-path acks = 0; stats %+v", st0)
	}
	if st1.FastPathData == 0 {
		t.Errorf("receiver fast-path data = 0; stats %+v", st1)
	}
	if st1.FastPathData < st1.SlowPath {
		t.Errorf("slow path dominates bulk receive: fast=%d slow=%d",
			st1.FastPathData, st1.SlowPath)
	}
}

func TestSlowStartGrowsCwnd(t *testing.T) {
	n := pair(t, Stream, 1460, 1<<20, nil)
	initial := n.conns[0].Cwnd()
	n.send(0, buf.Virtual(200_000))
	n.run(10_000_000_000)
	if got := n.conns[0].Cwnd(); got <= initial {
		t.Errorf("cwnd did not grow: %d -> %d", initial, got)
	}
}

func TestTimeoutCollapsesCwnd(t *testing.T) {
	n := pair(t, Stream, 1000, 1<<20, nil)
	n.send(0, buf.Virtual(50_000))
	n.run(10_000_000_000)
	grown := n.conns[0].Cwnd()
	if grown <= 2000 {
		t.Fatalf("cwnd never grew (%d); test needs growth first", grown)
	}
	// Black-hole everything from side 0, send, and let the RTO fire once.
	n.drop = func(from, idx int, seg *Segment) bool { return from == 0 }
	n.send(0, buf.Virtual(5000))
	n.run(5_000_000_000)
	if got := n.conns[0].Cwnd(); got != 1000 {
		t.Errorf("cwnd after timeout = %d, want 1 MSS (1000)", got)
	}
	if n.conns[0].Stats().Timeouts == 0 {
		t.Error("no timeout recorded")
	}
}

func TestNagleCoalescesSmallWrites(t *testing.T) {
	n := pair(t, Stream, 1460, 64*1024, func(c *Config) { c.NoDelay = false })
	for i := 0; i < 20; i++ {
		n.send(0, buf.Virtual(10)) // 20 tiny writes back to back
	}
	n.run(5_000_000_000)
	if got := n.totalDelivered(1); got != 200 {
		t.Fatalf("delivered %d bytes, want 200", got)
	}
	// Nagle must have coalesced: far fewer data segments than writes.
	if segs := n.conns[0].Stats().DataSegsOut; segs >= 20 {
		t.Errorf("%d data segments for 20 tiny writes; Nagle inactive", segs)
	}
}

func TestNoDelaySendsImmediately(t *testing.T) {
	n := pair(t, Stream, 1460, 64*1024, nil) // NoDelay is set in pair()
	for i := 0; i < 5; i++ {
		n.send(0, buf.Virtual(10))
		n.run(1_000_000_000)
	}
	if segs := n.conns[0].Stats().DataSegsOut; segs != 5 {
		t.Errorf("%d data segments for 5 NODELAY writes, want 5", segs)
	}
}

func TestDelayedAckCoalescesAcks(t *testing.T) {
	n := pair(t, Stream, 1000, 256*1024, func(c *Config) {
		if c.LocalPort == 2000 {
			c.DelayedAck = true
		}
	})
	n.send(0, buf.Virtual(20_000))
	n.run(10_000_000_000)
	if n.totalDelivered(1) != 20_000 {
		t.Fatalf("delivered %d", n.totalDelivered(1))
	}
	acks := n.conns[1].Stats().AcksOut
	segs := n.conns[1].Stats().DataSegsIn
	if acks >= segs {
		t.Errorf("delayed acks inactive: %d acks for %d data segments", acks, segs)
	}
}

func TestStatsAccounting(t *testing.T) {
	n := pair(t, Record, 16384, 256*1024, nil)
	n.send(0, buf.Pattern(1234, 1))
	n.run(5_000_000_000)
	st0, st1 := n.conns[0].Stats(), n.conns[1].Stats()
	if st0.BytesOut != 1234 || st1.BytesIn != 1234 {
		t.Errorf("byte accounting: out=%d in=%d", st0.BytesOut, st1.BytesIn)
	}
	if st0.DataSegsOut != 1 || st1.DataSegsIn != 1 {
		t.Errorf("segment accounting: out=%d in=%d", st0.DataSegsOut, st1.DataSegsIn)
	}
}

func TestConnectTwiceFails(t *testing.T) {
	c := NewConn(Config{LocalPort: 1, RemotePort: 2})
	if _, err := c.Connect(0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Connect(0); err == nil {
		t.Error("second Connect succeeded")
	}
}

func TestAcceptSYNRejectsNonSYN(t *testing.T) {
	c := NewConn(Config{LocalPort: 1, RemotePort: 2})
	if _, err := c.AcceptSYN(&Segment{Flags: ACK}, 0); err == nil {
		t.Error("AcceptSYN accepted a non-SYN segment")
	}
}

func TestSynRetransmittedWhenLost(t *testing.T) {
	a := NewConn(Config{LocalPort: 1, RemotePort: 2, MSS: 1460, ISS: 1})
	b := NewConn(Config{LocalPort: 2, RemotePort: 1, MSS: 1460, ISS: 2})
	n := newTestNet(t, a, b)
	acts, err := a.Connect(n.now)
	if err != nil {
		t.Fatal(err)
	}
	_ = acts // SYN "lost": never delivered
	// Let the SYN retransmit timer fire; capture the retransmission.
	n.run(10_000_000_000)
	if a.Stats().Timeouts == 0 {
		t.Fatal("SYN loss never timed out")
	}
	if a.Stats().Retransmits == 0 {
		t.Fatal("SYN never retransmitted")
	}
}

// TestReuseActionBuffersOnlyOn: reuse is the one Actions mode, so the old
// switch accepts on and panics on off.
func TestReuseActionBuffersOnlyOn(t *testing.T) {
	c := NewConn(Config{LocalPort: 1, RemotePort: 2})
	c.ReuseActionBuffers(true)
	defer func() {
		if recover() == nil {
			t.Error("ReuseActionBuffers(false) did not panic")
		}
	}()
	c.ReuseActionBuffers(false)
}

package qpipnic

import (
	"repro/internal/fabric"
	"repro/internal/inet"
	"repro/internal/tcp"
	"repro/internal/verbs"
	"repro/internal/wire"
)

// This file is the receive FSM (paper §3.1, Figure 2 right): media
// receive, IP parse, TCP/UDP parse (with the expensive ACK path — the RTT
// estimator multiplies run in software on the LANai), then Get WR / Put
// Data / Update for delivered messages. "A pure TCP acknowledgement is
// simply a special case of a regular data receive operation, except that
// no data is delivered to the application" (paper §3.1). The stage
// sequences themselves run on the pooled chain runners (chain.go): Media
// Rcv / IP Parse / checksum, then an in-runner dispatch to the transport
// parse stage and body.

// receiveFrame is the fabric delivery handler.
func (n *NIC) receiveFrame(f *fabric.Frame) {
	if cm, ok := f.Payload.(*collMsg); ok {
		// Collective messages bypass the inter-network stack: the
		// collective engine demultiplexes on (group, seq) directly. From
		// here on this adapter holds the message (see collMsg.nic).
		cm.nic = n
		if n.down {
			cm.Release()
			return
		}
		n.receiveColl(cm)
		return
	}
	pkt, ok := f.Payload.(*wire.Packet)
	if !ok {
		return // not for this stack
	}
	if n.down {
		// A crashed adapter is deaf: the frame dies at the media interface.
		pkt.Release()
		return
	}
	if pkt.IsV4 {
		pkt.Release()
		return // not for this stack
	}
	ip6, err := inet.Parse6(pkt.IPHdr)
	if err != nil {
		*n.rxCorrupt++
		pkt.Release()
		return
	}
	tpl := n.rxData[:]
	if ip6.NextHeader == inet.ProtoTCP && pkt.Payload.Len() == 0 {
		tpl = n.rxAck[:]
	}
	cr := n.getChain(nil)
	cr.use(tpl)
	cr.pkt = pkt
	cr.ip6 = ip6
	cr.epoch = pkt.Epoch
	cr.bytes = len(pkt.L4Hdr) + pkt.Payload.Len()
	cr.run()
}

// acceptSYN mates an incoming connection to an idle QP on listener l.
// epoch is the client adapter's boot generation carried by the SYN; the
// new connection is fenced to it.
func (n *NIC) acceptSYN(l *verbs.Listener, seg *tcp.Segment, ip6 *inet.Header6, epoch uint32) {
	att, err := n.cfg.Routes.Lookup(ip6.Src)
	if err != nil {
		n.Net.Add("rx.drop.no-route", 1)
		return
	}
	qp, ok := l.TakeIdle()
	if !ok {
		// No idle QP parked: drop; the client's SYN retransmit retries —
		// a later Listener.Post may still mate the connection.
		n.Net.Add("accept.no-idle-qp", 1)
		return
	}
	qs := n.qps.get(qp.QPN)
	qs.localPort = seg.DstPort
	qs.remoteAddr, qs.remotePort, qs.remoteAtt = ip6.Src, seg.SrcPort, att
	qs.peerEpoch = epoch
	qs.conn = n.tcp.Open(qs.key(), qs, n.connConfig())
	qs.conn.ReserveRecords(qp.SendDepth())
	// Receive WRs may already be posted on the parked QP. A connection
	// opened off an empty shared pool parks on it at once, like any other
	// zero-window advertisement: only a repost can open its window.
	posted := qp.PostedRecvBytes()
	qs.conn.SetRecvWindow(posted, int64(n.eng.Now()))
	if posted == 0 {
		n.enqueueSRQWaiter(qs)
	}
	now := int64(n.eng.Now())
	acts, err := qs.conn.AcceptSYN(seg, now)
	if err != nil {
		return
	}
	n.eng.Rearm(&qs.timer, qs.conn, tcpTimer, qs.timerFn)
	n.handleActions(qs, acts, nil)
}

// sendBare transmits seg to dst at fabric attachment att outside any live
// TCB (an RST); a transient endpoint record carries the routing fields
// the transmit path needs.
func (n *NIC) sendBare(seg *tcp.Segment, dst inet.Addr6, att int) {
	n.enqueueTx(txWork{qs: &qpState{remoteAddr: dst, remoteAtt: att}, seg: seg})
}

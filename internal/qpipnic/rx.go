package qpipnic

import (
	"repro/internal/fabric"
	"repro/internal/inet"
	"repro/internal/tcp"
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
		n.stats.ChecksumErrors++
		n.Net.Add("rx.corrupt", 1)
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

// acceptSYN mates an incoming connection to an idle QP on the listener.
// epoch is the client adapter's boot generation carried by the SYN; the
// new connection is fenced to it.
func (n *NIC) acceptSYN(seg *tcp.Segment, ip6 *inet.Header6, epoch uint32) {
	l := n.listeners[seg.DstPort]
	if l == nil {
		// Nothing listens here: refuse explicitly with an RST so the
		// client fails fast (ErrConnRefused) instead of burning its SYN
		// retry budget against a silent drop.
		n.stats.NoPortDrops++
		n.Net.Add("conn.refused", 1)
		n.sendRST(seg, ip6.Src)
		return
	}
	att, err := n.cfg.Routes.Lookup(ip6.Src)
	if err != nil {
		n.stats.NoRouteDrops++
		n.Net.Add("rx.drop.no-route", 1)
		return
	}
	qp, ok := l.TakeIdle()
	if !ok {
		// No idle QP parked: drop; the client's SYN retransmit retries —
		// a later Listener.Post may still mate the connection.
		n.stats.NoPortDrops++
		n.Net.Add("accept.no-idle-qp", 1)
		return
	}
	qs := n.qps.get(qp.QPN)
	qs.localPort = seg.DstPort
	qs.remoteAddr, qs.remotePort, qs.remoteAtt = ip6.Src, seg.SrcPort, att
	qs.peerEpoch = epoch
	qs.conn = tcp.NewConn(n.connConfig(seg.DstPort, seg.SrcPort))
	// The firmware consumes every Actions before re-entering the TCB, so
	// the action slices can live in per-conn reusable buffers.
	qs.conn.ReuseActionBuffers(true)
	// Receive WRs may already be posted on the parked QP.
	qs.conn.SetRecvWindow(qp.PostedRecvBytes(), int64(n.eng.Now()))
	n.tcpConns[tcpKey{seg.DstPort, ip6.Src, seg.SrcPort}] = qs
	now := int64(n.eng.Now())
	acts, err := qs.conn.AcceptSYN(seg, now)
	if err != nil {
		return
	}
	n.syncTimer(qs)
	n.handleActionsChain(qs, acts, nil)
}

// sendRST emits a connection-refusal RST in response to seg from src.
// There is no TCB for this exchange; a transient endpoint record carries
// the routing fields the transmit path needs.
func (n *NIC) sendRST(seg *tcp.Segment, src inet.Addr6) {
	att, err := n.cfg.Routes.Lookup(src)
	if err != nil {
		return
	}
	rst := &tcp.Segment{
		SrcPort: seg.DstPort,
		DstPort: seg.SrcPort,
		Flags:   tcp.RST | tcp.ACK,
		Ack:     seg.Seq.Add(1),
		WScale:  -1,
	}
	tmp := &qpState{localPort: seg.DstPort, remoteAddr: src, remotePort: seg.SrcPort, remoteAtt: att}
	n.enqueueTx(txWork{qs: tmp, seg: rst})
}

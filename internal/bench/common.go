// Package bench regenerates every table and figure of the paper's
// evaluation (§4.2): Figure 3 (round-trip time), Figure 4 (ttcp
// throughput and CPU utilization), Table 1 (host overhead), Tables 2 & 3
// (NIC per-stage occupancy), and Figure 7 (NBD storage performance) —
// plus ablations over the design choices DESIGN.md calls out.
package bench

import (
	"fmt"

	"repro/internal/buf"
	"repro/internal/core"
	"repro/internal/hostos"
	"repro/internal/params"
	"repro/internal/qpipnic"
	"repro/internal/sim"
	"repro/internal/verbs"
)

// StackKind names a measured configuration.
type StackKind int

// The three stacks of the paper's comparison.
const (
	IPGigE StackKind = iota
	IPMyrinet
	QPIP
)

func (s StackKind) String() string {
	switch s {
	case IPGigE:
		return "IP/GigE"
	case IPMyrinet:
		return "IP/Myrinet"
	default:
		return "QPIP"
	}
}

// hostConfig is the node configuration of a host-based stack: the
// kernel over GigE or over GM.
func (s StackKind) hostConfig() core.NodeConfig {
	if s == IPGigE {
		return core.NodeConfig{GigE: true}
	}
	return core.NodeConfig{GM: true}
}

// pollWait spin-polls a CQ (the latency-measurement discipline; the
// paper's overheads were measured "by directly timing the associated
// communication methods from user-space"). It reaps like (*verbs.CQ).Wait,
// which blocks on the CQ event line instead.
func pollWait(cq *verbs.CQ, p *sim.Proc) verbs.Completion {
	for {
		if comp, ok := cq.Poll(p); ok {
			return comp
		}
	}
}

// newQP builds a QP of transport t on a node, send and receive queues
// depth deep, with its own send and receive CQs of twice that.
func newQP(node *core.Node, t verbs.TransportType, depth int) (qp *verbs.QP, scq, rcq *verbs.CQ) {
	scq = verbs.NewCQ(node.QPIP, depth*2)
	rcq = verbs.NewCQ(node.QPIP, depth*2)
	qp, err := verbs.NewQP(node.QPIP, verbs.QPConfig{
		Transport: t, SendCQ: scq, RecvCQ: rcq,
		SendDepth: depth, RecvDepth: depth,
	})
	if err != nil {
		panic(err)
	}
	return qp, scq, rcq
}

// qpipPingPongStats carries everything the RTT and Table 1/2/3
// experiments extract from one QPIP ping-pong run.
type qpipPingPongStats struct {
	rttUS float64
	// hostPerMsgUS is host CPU consumed by the timed verbs calls
	// (PostSend + PostRecv + successful Poll) per message — Table 1's
	// QPIP row.
	hostPerMsgUS float64
	cluster      *core.Cluster
}

// qpipPingPong runs a reliable 1-byte ping-pong (iters round trips after
// warmup) on a QPIP cluster with the given checksum mode. Both sides reap
// completions with reap: pollWait for the latency and overhead
// measurements, (*verbs.CQ).Wait for the IRQ ablation, where every
// message pays the CQ event coalescing delay that tweak sets.
func qpipPingPong(cs qpipnic.ChecksumMode, iters int, reap func(*verbs.CQ, *sim.Proc) verbs.Completion,
	tweak func(*core.NodeConfig), prep ...func(*core.Cluster)) qpipPingPongStats {
	cfg := core.NodeConfig{QPIP: true, QPIPChecksum: cs}
	if tweak != nil {
		tweak(&cfg)
	}
	c := prepared(core.NewCluster(2, cfg), prep)
	var out qpipPingPongStats
	out.cluster = c
	const port = 7000
	total := iters + 2 // one warmup RTT

	serverReady := false
	c.SpawnOn(1, "server", func(p *sim.Proc) {
		qp, _, rcq := newQP(c.Nodes[1], verbs.Reliable, 2*total)
		lst, err := c.Nodes[1].QPIP.Listen(port)
		if err != nil {
			panic(err)
		}
		lst.Post(qp)
		if err := qp.WaitEstablished(p); err != nil {
			panic(err)
		}
		for i := 0; i < total; i++ {
			qp.PostRecv(p, verbs.RecvWR{ID: uint64(i), Capacity: 64})
		}
		serverReady = true
		for i := 0; i < total-1; i++ {
			reap(rcq, p)
			qp.PostSend(p, verbs.SendWR{ID: uint64(i), Payload: buf.Virtual(1)})
		}
	})
	c.SpawnOn(0, "client", func(p *sim.Proc) {
		qp, scq, rcq := newQP(c.Nodes[0], verbs.Reliable, 2*total)
		if err := qp.Connect(p, c.Nodes[1].Addr6, port); err != nil {
			panic(err)
		}
		for !serverReady {
			p.Sleep(5 * sim.Microsecond)
		}
		for i := 0; i < total; i++ {
			qp.PostRecv(p, verbs.RecvWR{ID: uint64(i), Capacity: 64})
		}
		cpu := c.Nodes[0].CPU
		// Warmup round trip.
		qp.PostSend(p, verbs.SendWR{ID: 0, Payload: buf.Virtual(1)})
		reap(rcq, p)
		reap(scq, p)
		c.Nodes[0].QPIP.ResetStages()
		c.Nodes[1].QPIP.ResetStages()

		var postSendBusy sim.Time
		start := p.Now()
		for i := 1; i <= iters; i++ {
			b0 := cpu.BusyTotal()
			qp.PostSend(p, verbs.SendWR{ID: uint64(i), Payload: buf.Virtual(1)})
			postSendBusy += cpu.BusyTotal() - b0
			reap(rcq, p) // wait for the echo
			reap(scq, p) // reap the send completion
		}
		rtt := p.Now() - start
		out.rttUS = rtt.Micros() / float64(iters)
		// Table 1 accounting — "directly timing the associated
		// communication methods": PostSend (measured), PostRecv
		// (measured), plus one successful CQ poll per message.
		b0 := cpu.BusyTotal()
		qp.PostRecv(p, verbs.RecvWR{ID: 9999, Capacity: 64})
		postRecvCost := cpu.BusyTotal() - b0
		perMsg := postSendBusy/sim.Time(iters) + postRecvCost + params.US(params.VerbsPollUS)
		out.hostPerMsgUS = perMsg.Micros()
	})
	c.Run()
	return out
}

// prepared runs prep hooks against a freshly built cluster before any
// traffic — the chaos sweep attaches a fault injector this way, and the
// digest tests capture the engine — and returns it.
func prepared(c *core.Cluster, prep []func(*core.Cluster)) *core.Cluster {
	for _, fn := range prep {
		fn(c)
	}
	return c
}

// qpipUDPPingPong measures the unreliable (UDP) 1-byte RTT.
func qpipUDPPingPong(cs qpipnic.ChecksumMode, iters int, prep ...func(*core.Cluster)) float64 {
	c := prepared(core.NewCluster(2, core.NodeConfig{QPIP: true, QPIPChecksum: cs}), prep)
	var rttUS float64
	total := iters + 2
	c.SpawnOn(1, "server", func(p *sim.Proc) {
		qp, _, rcq := newQP(c.Nodes[1], verbs.Unreliable, 2*total)
		if _, err := qp.BindUDP(7001); err != nil {
			panic(err)
		}
		for i := 0; i < total; i++ {
			qp.PostRecv(p, verbs.RecvWR{ID: uint64(i), Capacity: 64})
		}
		for i := 0; i < total-1; i++ {
			comp := pollWait(rcq, p)
			qp.PostSend(p, verbs.SendWR{
				ID: uint64(i), Payload: buf.Virtual(1),
				RemoteAddr: comp.RemoteAddr, RemotePort: comp.RemotePort,
			})
		}
	})
	c.SpawnOn(0, "client", func(p *sim.Proc) {
		qp, _, rcq := newQP(c.Nodes[0], verbs.Unreliable, 2*total)
		if _, err := qp.BindUDP(7002); err != nil {
			panic(err)
		}
		for i := 0; i < total; i++ {
			qp.PostRecv(p, verbs.RecvWR{ID: uint64(i), Capacity: 64})
		}
		send := func(i int) {
			qp.PostSend(p, verbs.SendWR{
				ID: uint64(i), Payload: buf.Virtual(1),
				RemoteAddr: c.Nodes[1].Addr6, RemotePort: 7001,
			})
		}
		send(0) // warmup
		pollWait(rcq, p)
		start := p.Now()
		for i := 1; i <= iters; i++ {
			send(i)
			pollWait(rcq, p)
		}
		rttUS = (p.Now() - start).Micros() / float64(iters)
	})
	c.Run()
	return rttUS
}

// sockPingPong measures the host-stack 1-byte RTT over GigE or GM.
func sockPingPong(kind StackKind, udp bool, iters int, prep ...func(*core.Cluster)) float64 {
	c := prepared(core.NewCluster(2, kind.hostConfig()), prep)
	var rttUS float64
	if udp {
		c.SpawnOn(1, "server", func(p *sim.Proc) {
			s := c.Nodes[1].Kernel.NewSocket(hostos.UDPSock)
			s.BindUDP(7001)
			for {
				b, addr, port, err := s.RecvFrom(p)
				if err != nil {
					return
				}
				_ = b
				if err := s.SendTo(p, buf.Virtual(1), addr, port); err != nil {
					return
				}
			}
		})
		c.SpawnOn(0, "client", func(p *sim.Proc) {
			s := c.Nodes[0].Kernel.NewSocket(hostos.UDPSock)
			s.BindUDP(7002)
			s.SendTo(p, buf.Virtual(1), c.Nodes[1].Addr4, 7001) // warmup
			s.RecvFrom(p)
			start := p.Now()
			for i := 0; i < iters; i++ {
				s.SendTo(p, buf.Virtual(1), c.Nodes[1].Addr4, 7001)
				s.RecvFrom(p)
			}
			rttUS = (p.Now() - start).Micros() / float64(iters)
			s.Close(p)
		})
		c.RunFor(30 * sim.Second)
		return rttUS
	}
	c.SpawnOn(1, "server", func(p *sim.Proc) {
		lst := c.Nodes[1].Kernel.NewSocket(hostos.TCPSock)
		lst.Listen(7000, 4)
		s := lst.Accept(p)
		s.SetNoDelay(true)
		for {
			if _, err := s.RecvFull(p, 1); err != nil {
				return
			}
			if err := s.Send(p, buf.Virtual(1)); err != nil {
				return
			}
		}
	})
	c.SpawnOn(0, "client", func(p *sim.Proc) {
		s := c.Nodes[0].Kernel.NewSocket(hostos.TCPSock)
		s.SetNoDelay(true)
		if err := s.Connect(p, c.Nodes[1].Addr4, 7000); err != nil {
			panic(fmt.Sprintf("bench: connect: %v", err))
		}
		s.Send(p, buf.Virtual(1)) // warmup
		s.RecvFull(p, 1)
		start := p.Now()
		for i := 0; i < iters; i++ {
			s.Send(p, buf.Virtual(1))
			s.RecvFull(p, 1)
		}
		rttUS = (p.Now() - start).Micros() / float64(iters)
		s.Close(p)
	})
	c.RunFor(30 * sim.Second)
	return rttUS
}

// hostLoopbackOverhead measures Table 1's host-based row: per-message
// host CPU for a 1-byte TCP message through loopback.
func hostLoopbackOverhead(iters int, prep ...func(*core.Cluster)) float64 {
	c := prepared(core.NewCluster(1, core.NodeConfig{GigE: true}), prep)
	k := c.Nodes[0].Kernel
	var perMsgUS float64
	done := false
	c.SpawnOn(0, "server", func(p *sim.Proc) {
		lst := k.NewSocket(hostos.TCPSock)
		lst.Listen(7000, 4)
		s := lst.Accept(p)
		for !done {
			if _, err := s.Recv(p, 64); err != nil {
				return
			}
			if err := s.Send(p, buf.Virtual(1)); err != nil {
				return
			}
		}
	})
	c.SpawnOn(0, "client", func(p *sim.Proc) {
		s := k.NewSocket(hostos.TCPSock)
		s.SetNoDelay(true)
		if err := s.Connect(p, c.Nodes[0].Addr4, 7000); err != nil {
			panic(err)
		}
		s.Send(p, buf.Virtual(1))
		s.RecvFull(p, 1)
		b0 := k.CPU().BusyTotal()
		for i := 0; i < iters; i++ {
			s.Send(p, buf.Virtual(1))
			s.RecvFull(p, 1)
		}
		perMsgUS = (k.CPU().BusyTotal() - b0).Micros() / float64(2*iters)
		done = true
		s.Close(p)
	})
	c.RunFor(60 * sim.Second)
	return perMsgUS
}

// cyclesAt converts microseconds of host time to host cycles.
func cyclesAt(us float64) float64 { return us * params.HostClockHz / 1e6 }

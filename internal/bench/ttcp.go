package bench

import (
	"repro/internal/buf"
	"repro/internal/core"
	"repro/internal/hostos"
	"repro/internal/qpipnic"
	"repro/internal/sim"
	"repro/internal/verbs"
)

// TtcpMeasure is one ttcp run's outcome.
type TtcpMeasure struct {
	MBps float64
	// SendCPU / RecvCPU are fractions of one host processor.
	SendCPU, RecvCPU float64
	// NICCPU is the sender-side adapter processor utilization (QPIP only).
	NICCPU float64
	// wakesPerMsg is receiver CQ event-line firings per message (QPIP
	// only): below 1.0, one interrupt serviced a train of completions.
	wakesPerMsg float64
}

// ttcp parameters: "a 10MB transfer in 16KB chunks with the TCP_NODELAY
// option set" (paper §4.2.1).
const (
	TtcpChunk = 16 * 1024
)

// qpipTtcp runs the ttcp-equivalent over a QPIP cluster: messages of
// min(msgSize, maxMessage), pipelined with a bounded number outstanding,
// completions reaped with Wait (the utilization-measurement discipline —
// a blocked ttcp burns no cycles). Figure 4 sends TtcpChunk messages; the
// IRQ ablation sends smaller ones to outpace its coalescing delays.
// prep hooks run against the built cluster before any traffic; the chaos
// sweep uses one to attach a fault injector.
func qpipTtcp(mtu int, cs qpipnic.ChecksumMode, msgSize, total int, tweak func(*core.NodeConfig), prep ...func(*core.Cluster)) TtcpMeasure {
	cfg := core.NodeConfig{QPIP: true, QPIPMTU: mtu, QPIPChecksum: cs}
	if tweak != nil {
		tweak(&cfg)
	}
	c := prepared(core.NewCluster(2, cfg), prep)
	if maxMsg := c.Nodes[0].QPIP.MaxMessage(); msgSize > maxMsg {
		msgSize = maxMsg
	}
	nMsgs := (total + msgSize - 1) / msgSize
	const port = 7000
	const window = 64 // outstanding messages

	var out TtcpMeasure
	var start, end sim.Time
	var sndBusy0, rcvBusy0, nicBusy0 sim.Time
	var wakes uint64

	const batch = 16 // WRs per batch verb call
	c.SpawnOn(1, "server", func(p *sim.Proc) {
		qp, _, rcq := newQP(c.Nodes[1], verbs.Reliable, 2*window)
		lst, err := c.Nodes[1].QPIP.Listen(port)
		if err != nil {
			panic(err)
		}
		lst.Post(qp)
		if err := qp.WaitEstablished(p); err != nil {
			panic(err)
		}
		line := rcq.EventLine()
		fired0 := line.Fired()
		var rwrs [batch]verbs.RecvWR
		var comps [window]verbs.Completion
		posted, got := 0, 0
		postMore := func() {
			for posted < nMsgs && posted-got < window {
				b := 0
				for b < batch && posted+b < nMsgs && (posted+b)-got < window {
					rwrs[b] = verbs.RecvWR{ID: uint64(posted + b), Capacity: msgSize}
					b++
				}
				k, err := qp.PostRecvN(p, rwrs[:b])
				if err != nil {
					panic(err)
				}
				posted += k
			}
		}
		postMore()
		for got < nMsgs {
			rcq.Wait(p)
			got++
			// Reap whatever else already completed: one wakeup covers a
			// batch, as a real blocked receiver would see.
			got += rcq.PollN(p, comps[:])
			postMore()
		}
		end = p.Now()
		wakes = line.Fired() - fired0
	})
	c.SpawnOn(0, "client", func(p *sim.Proc) {
		qp, scq, _ := newQP(c.Nodes[0], verbs.Reliable, 2*window)
		if err := qp.Connect(p, c.Nodes[1].Addr6, port); err != nil {
			panic(err)
		}
		start = p.Now()
		sndBusy0 = c.Nodes[0].CPU.BusyTotal()
		rcvBusy0 = c.Nodes[1].CPU.BusyTotal()
		nicBusy0 = c.Nodes[0].QPIP.CPU().BusyTotal()
		var wrs [batch]verbs.SendWR
		var comps [window]verbs.Completion
		inFlight, sent := 0, 0
		for sent < nMsgs {
			for inFlight < window && sent < nMsgs {
				b := 0
				for b < batch && inFlight+b < window && sent+b < nMsgs {
					wrs[b] = verbs.SendWR{ID: uint64(sent + b), Payload: buf.Virtual(msgSize)}
					b++
				}
				k, err := qp.PostSendN(p, wrs[:b])
				if err != nil {
					panic(err)
				}
				sent += k
				inFlight += k
			}
			scq.Wait(p)
			inFlight--
			if inFlight > 0 {
				inFlight -= scq.PollN(p, comps[:inFlight])
			}
		}
		for inFlight > 0 {
			scq.Wait(p)
			inFlight--
		}
	})
	c.Run()
	dur := end - start
	out.MBps = float64(nMsgs*msgSize) / 1e6 / dur.Seconds()
	out.SendCPU = float64(c.Nodes[0].CPU.BusyTotal()-sndBusy0) / float64(dur)
	out.RecvCPU = float64(c.Nodes[1].CPU.BusyTotal()-rcvBusy0) / float64(dur)
	out.NICCPU = float64(c.Nodes[0].QPIP.CPU().BusyTotal()-nicBusy0) / float64(dur)
	out.wakesPerMsg = float64(wakes) / float64(nMsgs)
	return out
}

// sockTtcp runs ttcp over a host-stack cluster.
func sockTtcp(kind StackKind, total int, tweak func(*core.NodeConfig), prep ...func(*core.Cluster)) TtcpMeasure {
	cfg := kind.hostConfig()
	if tweak != nil {
		tweak(&cfg)
	}
	c := prepared(core.NewCluster(2, cfg), prep)
	var out TtcpMeasure
	var start, end sim.Time
	var sndBusy0, rcvBusy0 sim.Time
	c.SpawnOn(1, "server", func(p *sim.Proc) {
		lst := c.Nodes[1].Kernel.NewSocket(hostos.TCPSock)
		lst.Listen(7000, 4)
		s := lst.Accept(p)
		if _, err := s.RecvFull(p, total); err != nil {
			panic(err)
		}
		end = p.Now()
	})
	c.SpawnOn(0, "client", func(p *sim.Proc) {
		s := c.Nodes[0].Kernel.NewSocket(hostos.TCPSock)
		s.SetNoDelay(true) // ttcp sets TCP_NODELAY (paper §4.2.1)
		if err := s.Connect(p, c.Nodes[1].Addr4, 7000); err != nil {
			panic(err)
		}
		start = p.Now()
		sndBusy0 = c.Nodes[0].CPU.BusyTotal()
		rcvBusy0 = c.Nodes[1].CPU.BusyTotal()
		for off := 0; off < total; off += TtcpChunk {
			n := TtcpChunk
			if off+n > total {
				n = total - off
			}
			if err := s.Send(p, buf.Virtual(n)); err != nil {
				panic(err)
			}
		}
	})
	c.Run()
	dur := end - start
	out.MBps = float64(total) / 1e6 / dur.Seconds()
	out.SendCPU = float64(c.Nodes[0].CPU.BusyTotal()-sndBusy0) / float64(dur)
	out.RecvCPU = float64(c.Nodes[1].CPU.BusyTotal()-rcvBusy0) / float64(dur)
	return out
}

// effectiveHostCPU picks the utilization figure the paper reports: the
// busier of the two hosts' single-CPU utilizations.
func (m TtcpMeasure) effectiveHostCPU() float64 {
	if m.SendCPU > m.RecvCPU {
		return m.SendCPU
	}
	return m.RecvCPU
}

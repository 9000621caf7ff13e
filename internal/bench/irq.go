package bench

import (
	"fmt"
	"strings"

	"repro/internal/buf"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/verbs"
)

// IRQRow is one point of the CQ interrupt-coalescing ablation: the
// latency a blocked waiter pays for event pacing versus the host CPU and
// wakeups the receiver saves while streaming.
type IRQRow struct {
	DelayUS float64 // CQ coalescing delay (QPIPCQCoalesceDelay)
	// PingPongUS is the 1-byte RTT with Wait-based (blocking) completion
	// reaps — the workload that eats the full coalescing delay.
	PingPongUS float64
	// StreamMBps / StreamRecvCPU are the ttcp-style streaming numbers.
	StreamMBps    float64
	StreamRecvCPU float64
	// WakesPerMsg is receiver CQ event-line firings per message: below 1.0
	// means one interrupt is servicing a train of completions.
	WakesPerMsg float64
}

// irqDelaysUS is the swept coalescing delay; 0 is the immediate-wake
// baseline.
var irqDelaysUS = []float64{0, 30, 70, 150, 300, 600}

// irqCoalescePkts is deliberately high so the delay knob, not the packet
// threshold, is the binding constraint across the sweep.
const irqCoalescePkts = 64

// irqStreamMsg is the streaming message size. Small messages drive the
// completion rate above 1/delay — the regime interrupt pacing exists for;
// at the 16 KB ttcp chunk the inter-completion gap already exceeds every
// swept delay and an idle line fires immediately.
const irqStreamMsg = 4 * 1024

// irqPingPong measures the blocking-reap RTT under a CQ coalescing delay:
// both sides sleep in Wait and are woken by the CQ event line, so every
// message pays the pacing delay twice (once per direction).
func irqPingPong(delay sim.Time, iters int) float64 {
	c := core.NewCluster(2, core.NodeConfig{
		QPIP:                true,
		QPIPCQCoalescePkts:  irqCoalescePkts,
		QPIPCQCoalesceDelay: delay,
	})
	var rttUS float64
	const port = 7000
	total := iters + 2

	serverReady := false
	c.Spawn("server", func(p *sim.Proc) {
		qp, _, rcq, err := newRC(c.Nodes[1], 2*total)
		if err != nil {
			panic(err)
		}
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
			rcq.Wait(p)
			qp.PostSend(p, verbs.SendWR{ID: uint64(i), Payload: buf.Virtual(1)})
		}
	})
	c.Spawn("client", func(p *sim.Proc) {
		qp, scq, rcq, err := newRC(c.Nodes[0], 2*total)
		if err != nil {
			panic(err)
		}
		if err := qp.Connect(p, c.Nodes[1].Addr6, port); err != nil {
			panic(err)
		}
		for !serverReady {
			p.Sleep(5 * sim.Microsecond)
		}
		for i := 0; i < total; i++ {
			qp.PostRecv(p, verbs.RecvWR{ID: uint64(i), Capacity: 64})
		}
		// Warmup round trip.
		qp.PostSend(p, verbs.SendWR{ID: 0, Payload: buf.Virtual(1)})
		rcq.Wait(p)
		scq.Wait(p)
		start := p.Now()
		for i := 1; i <= iters; i++ {
			qp.PostSend(p, verbs.SendWR{ID: uint64(i), Payload: buf.Virtual(1)})
			rcq.Wait(p)
			scq.Wait(p)
		}
		rttUS = (p.Now() - start).Micros() / float64(iters)
	})
	c.Run()
	return rttUS
}

// irqStream runs the unidirectional streaming workload (qpipTtcp's shape)
// and additionally reads the receiver CQ's event line to report wakeups
// per message.
func irqStream(delay sim.Time, totalBytes int) (mbps, recvCPU, wakesPerMsg float64) {
	c := core.NewCluster(2, core.NodeConfig{
		QPIP:                true,
		QPIPCQCoalescePkts:  irqCoalescePkts,
		QPIPCQCoalesceDelay: delay,
	})
	maxMsg := c.Nodes[0].QPIP.MaxMessage()
	msgSize := irqStreamMsg
	if msgSize > maxMsg {
		msgSize = maxMsg
	}
	nMsgs := (totalBytes + msgSize - 1) / msgSize
	const port = 7000
	const window = 64
	const batch = 16

	var start, end sim.Time
	var rcvBusy0 sim.Time
	var wakes uint64

	c.Spawn("server", func(p *sim.Proc) {
		qp, _, rcq, err := newRC(c.Nodes[1], 2*window)
		if err != nil {
			panic(err)
		}
		lst, err := c.Nodes[1].QPIP.Listen(port)
		if err != nil {
			panic(err)
		}
		lst.Post(qp)
		if err := qp.WaitEstablished(p); err != nil {
			panic(err)
		}
		var fired0 uint64
		if line := rcq.EventLine(); line != nil {
			fired0 = line.Fired()
		}
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
			got += rcq.PollN(p, comps[:])
			postMore()
		}
		end = p.Now()
		if line := rcq.EventLine(); line != nil {
			wakes = line.Fired() - fired0
		}
	})
	c.Spawn("client", func(p *sim.Proc) {
		qp, scq, _, err := newRC(c.Nodes[0], 2*window)
		if err != nil {
			panic(err)
		}
		if err := qp.Connect(p, c.Nodes[1].Addr6, port); err != nil {
			panic(err)
		}
		start = p.Now()
		rcvBusy0 = c.Nodes[1].CPU.BusyTotal()
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
	mbps = float64(nMsgs*msgSize) / 1e6 / dur.Seconds()
	recvCPU = float64(c.Nodes[1].CPU.BusyTotal()-rcvBusy0) / float64(dur)
	wakesPerMsg = float64(wakes) / float64(nMsgs)
	return
}

// IRQAblation sweeps the CQ event coalescing delay and reports the
// latency / host-CPU tradeoff: pacing completion interrupts trades
// blocking-reap round-trip time for fewer receiver wakeups and lower
// host utilization under streaming load.
func IRQAblation(totalBytes, rttIters int) []IRQRow {
	rows := make([]IRQRow, len(irqDelaysUS))
	sweep(len(rows), func(i int) {
		d := sim.Time(irqDelaysUS[i] * float64(sim.Microsecond))
		mbps, cpu, wakes := irqStream(d, totalBytes)
		rows[i] = IRQRow{
			DelayUS:       irqDelaysUS[i],
			PingPongUS:    irqPingPong(d, rttIters),
			StreamMBps:    mbps,
			StreamRecvCPU: cpu,
			WakesPerMsg:   wakes,
		}
	})
	return rows
}

// RenderIRQ formats the coalescing ablation.
func RenderIRQ(rows []IRQRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "CQ interrupt coalescing ablation (coalesce threshold %d pkts)\n", irqCoalescePkts)
	fmt.Fprintf(&b, "%10s %14s %12s %12s %12s\n",
		"delay us", "pingpong us", "stream MB/s", "recv CPU", "wakes/msg")
	for _, r := range rows {
		fmt.Fprintf(&b, "%10.0f %14.1f %12.1f %11.1f%% %12.3f\n",
			r.DelayUS, r.PingPongUS, r.StreamMBps, 100*r.StreamRecvCPU, r.WakesPerMsg)
	}
	b.WriteString("delay 0 = immediate wakes;\n")
	b.WriteString("larger delays pace CQ event interrupts: RTT rises, receiver wakeups and\n")
	b.WriteString("host CPU fall as one interrupt reaps a train of completions.\n")
	return b.String()
}

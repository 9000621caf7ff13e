package bench

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/params"
	"repro/internal/qpipnic"
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

// irqCoalesce sets a sweep point's CQ event coalescing.
func irqCoalesce(delayUS float64) func(*core.NodeConfig) {
	return func(cfg *core.NodeConfig) {
		cfg.QPIPCQCoalescePkts = irqCoalescePkts
		cfg.QPIPCQCoalesceDelay = sim.Time(delayUS * float64(sim.Microsecond))
	}
}

// IRQAblation sweeps the CQ event coalescing delay and reports the
// latency / host-CPU tradeoff: pacing completion interrupts trades
// blocking-reap round-trip time for fewer receiver wakeups and lower
// host utilization under streaming load.
func IRQAblation(totalBytes, rttIters int) []IRQRow {
	rows := make([]IRQRow, len(irqDelaysUS))
	sweep(len(rows), func(i int) {
		coalesce := irqCoalesce(irqDelaysUS[i])
		stream := qpipTtcp(params.MTUQPIP, qpipnic.ChecksumEmulatedHW, irqStreamMsg, totalBytes, coalesce)
		// Blocking reaps: both sides sleep in Wait and are woken by the CQ
		// event line, so every round trip pays the pacing delay twice.
		pp := qpipPingPong(qpipnic.ChecksumEmulatedHW, rttIters, (*verbs.CQ).Wait, coalesce)
		rows[i] = IRQRow{
			DelayUS:       irqDelaysUS[i],
			PingPongUS:    pp.rttUS,
			StreamMBps:    stream.MBps,
			StreamRecvCPU: stream.RecvCPU,
			WakesPerMsg:   stream.wakesPerMsg,
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

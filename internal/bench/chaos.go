package bench

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/params"
	"repro/internal/qpipnic"
	"repro/internal/trace"
)

// ChaosSeed is the fixed fault-plan seed of the loss sweep; rerunning
// `qpipbench -exp chaos` reproduces the identical fault sequence.
const ChaosSeed = 0x51EE7

// ChaosRow is one (stack, loss rate) cell of the sweep: delivered
// throughput plus the retransmissions the stack spent earning it.
type ChaosRow struct {
	Stack   StackKind
	DropPct float64 // injected per-frame drop probability, percent
	MBps    float64
	Retrans uint64
	Drops   uint64 // frames the injector actually ate
	// Corrupts counts frames both nodes' receivers rejected on checksum
	// (rx.corrupt); DBDrops counts doorbell-FIFO overruns at the host↔NIC
	// boundary (db.drop, QPIP only) — backpressure the batched datapath
	// must absorb rather than hide.
	Corrupts uint64
	DBDrops  uint64
}

// clusterNet sums the fault-visible counters of every adapter in the
// cluster (both nodes) into one view.
func clusterNet(cl *core.Cluster) *trace.Counters {
	sum := trace.NewCounters()
	for _, n := range cl.Nodes {
		if n.QPIP != nil {
			sum.AddAll(n.QPIP.Net)
		}
		if n.Kernel != nil {
			sum.AddAll(n.Kernel.Net)
		}
	}
	return sum
}

// chaosDropRates are the swept per-frame drop probabilities (percent).
var chaosDropRates = []float64{0, 0.1, 1, 5}

// Chaos sweeps seeded frame loss over the QPIP and IP/GigE stacks running
// the ttcp workload and reports throughput degradation alongside the
// retransmission work the loss induced. The injector spares the first 16
// frames so connection establishment isn't the thing being measured.
func Chaos(totalBytes int) []ChaosRow {
	// Each (rate, stack) cell is an independent sweep point with its own
	// cluster and injector, so the sweep parallelizes cleanly.
	rows := make([]ChaosRow, 2*len(chaosDropRates))
	sweep(len(rows), func(i int) {
		pct := chaosDropRates[i/2]
		plan := fault.Plan{Seed: ChaosSeed, DropProb: pct / 100, SkipFirst: 16}

		var inj *fault.Injector
		var cl *core.Cluster
		attach := func(c *core.Cluster) {
			cl = c
			inj = c.InjectFaults(plan)
		}

		if i%2 == 0 {
			q := qpipTtcp(params.MTUQPIP, qpipnic.ChecksumEmulatedHW, TtcpChunk, totalBytes, nil, attach)
			net := clusterNet(cl)
			rows[i] = ChaosRow{
				Stack: QPIP, DropPct: pct, MBps: q.MBps,
				Retrans:  cl.Nodes[0].QPIP.Net.Get("tx.retransmit"),
				Drops:    inj.Stats().Drops,
				Corrupts: net.Get("rx.corrupt"),
				DBDrops:  net.Get("db.drop"),
			}
		} else {
			g := sockTtcp(IPGigE, totalBytes, nil, attach)
			net := clusterNet(cl)
			rows[i] = ChaosRow{
				Stack: IPGigE, DropPct: pct, MBps: g.MBps,
				Retrans:  cl.Nodes[0].Kernel.Net.Get("tx.retransmit"),
				Drops:    inj.Stats().Drops,
				Corrupts: net.Get("rx.corrupt"),
			}
		}
	})
	return rows
}

// RenderChaos formats the loss sweep.
func RenderChaos(rows []ChaosRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos loss sweep: ttcp under seeded frame loss (seed 0x%X)\n", ChaosSeed)
	fmt.Fprintf(&b, "%-12s %8s %12s %12s %10s %10s %9s\n",
		"stack", "loss", "MB/s", "retransmits", "dropped", "corrupts", "db.drops")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %7.1f%% %12.1f %12d %10d %10d %9d\n",
			r.Stack, r.DropPct, r.MBps, r.Retrans, r.Drops, r.Corrupts, r.DBDrops)
	}
	return b.String()
}

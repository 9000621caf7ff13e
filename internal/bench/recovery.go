package bench

import (
	"fmt"
	"strings"

	"repro/internal/buf"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/nbd"
	"repro/internal/params"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/verbs"
)

// ---- Recovery experiment: end-to-end failure recovery under crash,
// sustained flap, and asymmetric partition (DESIGN §13). ----

// RecoverySeed fixes every probabilistic choice in the sweep (the backoff
// jitter); rerunning `qpipbench -exp recovery` reproduces the identical
// fault and recovery event sequence.
const RecoverySeed = 0xFA117

// RecoveryRow is one sweep point: an NBD patterned-write/flush/readback
// workload on the QPIP stack with one failure scenario injected, verified
// byte-exact, with the latency and goodput cost of recovering.
type RecoveryRow struct {
	Scenario string // baseline, crash-server, crash-client, flap, partition
	Backoff  string // policy name ("-" for baseline)
	// FaultAtMS / FaultForMS locate the injected outage (crash instant and
	// down window; flap-train start and total span; partition window).
	FaultAtMS  float64
	FaultForMS float64
	// StallMS is the longest gap between successive write completions —
	// the application-visible outage (detection + reconnect + replay).
	StallMS float64
	// RecoveryMS is how long after the fault cleared (adapter back up,
	// flaps over, partition healed) the write pipeline was moving again.
	RecoveryMS float64
	// GoodputMBps is write-phase goodput; DipPct its loss vs the
	// fault-free baseline point.
	GoodputMBps  float64
	BaselineMBps float64
	DipPct       float64
	// Sessions/Replays are the client transport's recovery work; the
	// counters below are summed across both adapters.
	Sessions    uint64
	Replays     uint64
	Retransmits uint64
	StaleEpoch  uint64
	PeerReboots uint64
	Crashes     uint64
	// Verified is the bytes-exactly-once check: every chunk read back
	// equals the pattern written, despite replays and duplicates.
	Verified bool
	Failed   bool // client declared the remote down
}

// recoveryBackoffs are the swept reconnect policies. Budgets are sized so
// both outlast the longest down window in the sweep; the contrast is how
// aggressively each polls a dead peer.
var recoveryBackoffs = []struct {
	name    string
	pol     verbs.BackoffPolicy
	timeout sim.Time
}{
	{"fast", verbs.BackoffPolicy{Base: 200 * sim.Microsecond, Max: 5 * sim.Millisecond, Attempts: 60, Seed: RecoverySeed}, 250 * sim.Millisecond},
	{"slow", verbs.BackoffPolicy{Base: 2 * sim.Millisecond, Max: 50 * sim.Millisecond, Attempts: 20, Seed: RecoverySeed}, 800 * sim.Millisecond},
}

// recoverySpec describes one sweep point before the cluster exists
// (fabric attachment indices are resolved inside the run).
type recoverySpec struct {
	scenario string
	backoff  string
	pol      verbs.BackoffPolicy
	timeout  sim.Time // watchdog session timeout (0 = nbd default)
	at, down sim.Time // crash instant + down window / window start + span
}

// faultFor reports the total outage span for the row.
func (s recoverySpec) faultFor() sim.Time { return s.down }

// recoveryRun executes one sweep point on a fresh 2-node QPIP cluster.
func recoveryRun(s recoverySpec, total int, baselineMBps float64, prep ...func(*core.Cluster)) RecoveryRow {
	c := prepared(core.NewCluster(2, core.NodeConfig{QPIP: true, QPIPMTU: params.MTUJumbo}), prep)
	diskSize := int64(total) + (64 << 20)
	disk := storage.NewDisk(c.EngineOf(1), "server.disk", diskSize)
	maxMsg := c.Nodes[0].QPIP.MaxMessage()

	plan := fault.Plan{Seed: RecoverySeed}
	var faultEnd sim.Time
	switch s.scenario {
	case "crash-server":
		plan.Crashes = []fault.Crash{{Node: 1, At: s.at, Down: s.down}}
		faultEnd = s.at + s.down
	case "crash-client":
		plan.Crashes = []fault.Crash{{Node: 0, At: s.at, Down: s.down}}
		faultEnd = s.at + s.down
	case "flap":
		// Five down windows cycling faster than TCP's MinRTO: each window
		// is a fifth of the span, half down half up.
		step := s.down / 5
		plan.Flaps = fault.FlapTrain(c.Nodes[1].QPIP.Attachment(), s.at, step/2, step/2, 5)
		faultEnd = s.at + s.down
	case "partition":
		// Asymmetric: the server hears nothing from the client while the
		// reverse path stays up — the failure mode flaps cannot express.
		plan.Partitions = []fault.Partition{{
			Src: c.Nodes[0].QPIP.Attachment(), Dst: c.Nodes[1].QPIP.Attachment(),
			From: s.at, To: s.at + s.down,
		}}
		faultEnd = s.at + s.down
	}
	inj := c.InjectFaults(plan)

	row := RecoveryRow{
		Scenario:   s.scenario,
		Backoff:    s.backoff,
		FaultAtMS:  float64(s.at) / 1e6,
		FaultForMS: float64(s.faultFor()) / 1e6,
	}

	c.SpawnOn(1, "nbd-server", func(p *sim.Proc) {
		qp, scq, rcq := newQP(c.Nodes[1], verbs.Reliable, 512)
		nbd.ServeQPResilient(p, c.Nodes[1].CPU, c.Nodes[1].QPIP, 10809,
			qp, scq, rcq, maxMsg, disk, s.pol)
	})

	var cli *nbd.QPClient
	c.SpawnOn(0, "nbd-client", func(p *sim.Proc) {
		qp, scq, rcq := newQP(c.Nodes[0], verbs.Reliable, 512)
		// The initial rendezvous goes through the same backoff machinery as
		// recovery: an early-scheduled fault may land mid-handshake.
		if err := qp.Reconnect(p, c.Nodes[1].Addr6, 10809, s.pol); err != nil {
			panic(err)
		}
		cli = nbd.NewQPClient(p, c.Nodes[0].CPU, qp, scq, rcq,
			maxMsg, diskSize, params.NBDQueueDepth, &nbd.RecoverySpec{
				Raddr: c.Nodes[1].Addr6, Rport: 10809, Backoff: s.pol, Timeout: s.timeout,
			})

		const chunk = 64 << 10
		start := p.Now()
		marks := []sim.Time{start}
		failed := false
		for off := 0; off < total; off += chunk {
			if err := cli.Write(p, int64(off), buf.Pattern(chunk, byte(off/chunk))); err != nil {
				failed = true
				break
			}
			marks = append(marks, p.Now())
		}
		if !failed && cli.Flush(p) != nil {
			failed = true
		}
		marks = append(marks, p.Now())
		writeEnd := p.Now()

		// Readback verification: bytes exactly once, end to end. The raw
		// block client has no cache, so every chunk re-crosses the wire.
		verified := !failed
		if !failed {
			for off := 0; off < total; off += chunk {
				b, err := cli.Read(p, int64(off), chunk)
				if err != nil || !buf.Equal(b, buf.Pattern(chunk, byte(off/chunk))) {
					verified = false
					break
				}
			}
		}

		row.Failed = failed
		row.Verified = verified
		if writeEnd > start {
			row.GoodputMBps = float64(total) / 1e6 / (writeEnd - start).Seconds()
		}
		var gapStart, gapEnd sim.Time
		for i := 1; i < len(marks); i++ {
			if marks[i]-marks[i-1] > gapEnd-gapStart {
				gapStart, gapEnd = marks[i-1], marks[i]
			}
		}
		row.StallMS = float64(gapEnd-gapStart) / 1e6
		if faultEnd > 0 && gapEnd > faultEnd {
			row.RecoveryMS = float64(gapEnd-faultEnd) / 1e6
		}
	})

	c.Run()

	net := clusterNet(c)
	row.Sessions = cli.Sessions()
	row.Replays = cli.Replays()
	row.Retransmits = net.Get("tx.retransmit")
	row.StaleEpoch = net.Get("rx.stale-epoch")
	row.PeerReboots = net.Get("rx.peer-reboot")
	row.Crashes = inj.Stats().Crashes
	row.BaselineMBps = baselineMBps
	if baselineMBps > 0 && row.GoodputMBps > 0 {
		row.DipPct = (1 - row.GoodputMBps/baselineMBps) * 100
	}
	return row
}

// Recovery sweeps crash time × outage duration × backoff policy, plus the
// sustained-flap and asymmetric-partition scenarios, over the recoverable
// NBD stack. Every point must come back Verified: the crash chaos may
// cost throughput, never bytes.
func Recovery(totalBytes int) []RecoveryRow {
	if totalBytes <= 0 {
		totalBytes = 4 << 20
	}
	base := recoveryRun(recoverySpec{scenario: "baseline", backoff: "-"}, totalBytes, 0)
	base.BaselineMBps = base.GoodputMBps
	baseline := base.GoodputMBps

	var specs []recoverySpec
	for _, bo := range recoveryBackoffs {
		for _, at := range []sim.Time{5 * sim.Millisecond, 20 * sim.Millisecond} {
			for _, down := range []sim.Time{10 * sim.Millisecond, 60 * sim.Millisecond} {
				specs = append(specs, recoverySpec{
					scenario: "crash-server", backoff: bo.name, pol: bo.pol, timeout: bo.timeout,
					at: at, down: down,
				})
			}
		}
		specs = append(specs, recoverySpec{
			scenario: "crash-client", backoff: bo.name, pol: bo.pol, timeout: bo.timeout,
			at: 10 * sim.Millisecond, down: 10 * sim.Millisecond,
		})
		specs = append(specs, recoverySpec{
			scenario: "flap", backoff: bo.name, pol: bo.pol, timeout: bo.timeout,
			at: 5 * sim.Millisecond, down: 20 * sim.Millisecond,
		})
		specs = append(specs, recoverySpec{
			scenario: "partition", backoff: bo.name, pol: bo.pol, timeout: bo.timeout,
			at: 5 * sim.Millisecond, down: 20 * sim.Millisecond,
		})
	}
	rows := make([]RecoveryRow, len(specs))
	sweep(len(rows), func(i int) {
		rows[i] = recoveryRun(specs[i], totalBytes, baseline)
	})
	return append([]RecoveryRow{base}, rows...)
}

// RenderRecovery formats the sweep as a table.
func RenderRecovery(rows []RecoveryRow) string {
	var b strings.Builder
	header(&b, fmt.Sprintf("Recovery sweep: NBD write/flush/readback under crash chaos (seed 0x%X)", RecoverySeed))
	fmt.Fprintf(&b, "%-14s %-7s %8s %8s %9s %9s %8s %7s %5s %8s %6s %6s %6s %7s %8s\n",
		"scenario", "backoff", "at(ms)", "for(ms)", "stall(ms)", "recov(ms)",
		"MB/s", "dip", "sess", "replays", "fence", "stale", "retx", "crashes", "verified")
	for _, r := range rows {
		ok := "YES"
		if !r.Verified {
			ok = "NO"
		}
		if r.Failed {
			ok = "FAILED"
		}
		fmt.Fprintf(&b, "%-14s %-7s %8.1f %8.1f %9.2f %9.2f %8.1f %6.1f%% %5d %8d %6d %6d %6d %7d %8s\n",
			r.Scenario, r.Backoff, r.FaultAtMS, r.FaultForMS, r.StallMS, r.RecoveryMS,
			r.GoodputMBps, r.DipPct, r.Sessions, r.Replays, r.PeerReboots, r.StaleEpoch,
			r.Retransmits, r.Crashes, ok)
	}
	return b.String()
}

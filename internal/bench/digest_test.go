package bench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/params"
	"repro/internal/qpipnic"
	"repro/internal/sim"
	"repro/internal/verbs"
)

// TestEventDigests pins sim.Engine.Digest — a hash over every fired
// event's time and name — for short runs through every stage where an
// operand waits beside a FIFO resource for its job to complete: doorbell
// tokens and receive posts crossing the bus, the host notification hop
// (bus DMA, then the host ISR), the collective receive stage, the gige
// and gm DMA and firmware stages, the host stack's tcp_output/udp_output,
// softirq and transport-input charges, the rx coalescer's ISR reap and
// the loopback delivery, plus an adapter crash and restart mid-transfer.
// It also pins the shared drivers behind the IRQ ablation (CQ event
// coalescing), connscale (private and shared receive pools) and Figure 7.
// A change to the mechanism behind those stages must leave every line
// here unchanged; a change to the modelled behaviour moves them, and the
// new values are recorded with the reason.
func TestEventDigests(t *testing.T) {
	crash := recoverySpec{
		scenario: "crash-server", backoff: recoveryBackoffs[0].name,
		pol: recoveryBackoffs[0].pol, timeout: recoveryBackoffs[0].timeout,
		at: 2 * sim.Millisecond, down: 5 * sim.Millisecond,
	}
	cases := []struct {
		name   string
		run    func(grab func(*core.Cluster))
		events uint64
		digest uint64
	}{
		{"qpip-tcp-ttcp", func(grab func(*core.Cluster)) {
			qpipTtcp(params.MTUQPIP, qpipnic.ChecksumEmulatedHW, TtcpChunk, 256<<10, nil, grab)
		}, 644, 0xaad09de930677c11},
		{"qpip-udp-exchange", func(grab func(*core.Cluster)) {
			qpipUDPPingPong(qpipnic.ChecksumEmulatedHW, 8, grab)
		}, 25257, 0x851867c4a1614047},
		{"gige-sock-ttcp", func(grab func(*core.Cluster)) {
			sockTtcp(IPGigE, 256<<10, nil, grab)
		}, 3135, 0x26e7a2fbefb3c152},
		{"gm-sock-ttcp", func(grab func(*core.Cluster)) {
			sockTtcp(IPMyrinet, 256<<10, nil, grab)
		}, 810, 0xfb989c8b5c71a5b3},
		{"gige-udp-exchange", func(grab func(*core.Cluster)) {
			sockPingPong(IPGigE, true, 8, grab)
		}, 275, 0x10147dc6b75d1e56},
		{"host-loopback-rtt", func(grab func(*core.Cluster)) {
			hostLoopbackOverhead(8, grab)
		}, 194, 0xaa8cb01ee33d19ac},
		{"fattree-allreduce", func(grab func(*core.Cluster)) {
			collNICRun("fattree", 8, 2, 16, "allreduce", grab)
		}, 2224, 0x3ccb7272dced4de2},
		{"fattree-barrier", func(grab func(*core.Cluster)) {
			collNICRun("fattree", 8, 2, 0, "barrier", grab)
		}, 516, 0x76482bf300c85243},
		{"nic-crash-restart", func(grab func(*core.Cluster)) {
			row := recoveryRun(crash, 1<<20, 0, grab)
			if row.Crashes != 1 || !row.Verified || row.Sessions < 2 {
				t.Errorf("nic-crash-restart: crashes=%d verified=%v sessions=%d, want one crash survived by a new session",
					row.Crashes, row.Verified, row.Sessions)
			}
		}, 18040, 0xa4f72c27541dc3d3},
		{"irq-stream", func(grab func(*core.Cluster)) {
			qpipTtcp(params.MTUQPIP, qpipnic.ChecksumEmulatedHW, irqStreamMsg, 256<<10, irqCoalesce(150), grab)
		}, 2150, 0xab2279c54fd8aab8},
		{"incast-priv", func(grab func(*core.Cluster)) {
			incastQPIP(64, 2, false, grab)
		}, 7358, 0x0a893a0f702a99ed},
		{"incast-srq", func(grab func(*core.Cluster)) {
			incastQPIP(64, 2, true, grab)
		}, 8078, 0x5f7e5823e9edf695},
		{"nbd-conns-priv", func(grab func(*core.Cluster)) {
			nbdConnQPIP(64, 2, false, grab)
		}, 13424, 0x76e439730fbbf862},
		{"nbd-fig7", func(grab func(*core.Cluster)) {
			nbdQPIPRun(1<<20, grab)
		}, 16994, 0x8ec21657c4814a3a},
		// The IRQ ablation's blocking ping-pong runs the Figure 3 driver,
		// whose Table 1 PostRecv cost probe after the timed loop adds two
		// events to the 670 (digest 0x5f7958ab98c596fc) of a run without it.
		{"irq-blocking-pingpong", func(grab func(*core.Cluster)) {
			qpipPingPong(qpipnic.ChecksumEmulatedHW, 8, (*verbs.CQ).Wait, irqCoalesce(150), grab)
		}, 672, 0x3cbf9e76cc035dc8},
	}
	for _, tc := range cases {
		var eng *sim.Engine
		tc.run(func(c *core.Cluster) { eng = c.Engines[0] })
		if got, gotDigest := eng.Fired(), eng.Digest(); got != tc.events || gotDigest != tc.digest {
			t.Errorf("%s: events=%d digest=%#016x, want events=%d digest=%#016x",
				tc.name, got, gotDigest, tc.events, tc.digest)
		}
	}
}

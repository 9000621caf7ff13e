package bench

import (
	"repro/internal/core"
	"repro/internal/params"
	"repro/internal/qpipnic"
)

// Ablation benches for the design choices DESIGN.md calls out. Each
// returns paired measurements with everything equal but the one knob.

// AblationRow compares one knob's two settings.
type AblationRow struct {
	Name     string
	Baseline TtcpMeasure
	Variant  TtcpMeasure
	// BaselineLabel / VariantLabel name the settings.
	BaselineLabel, VariantLabel string
}

// AblationChecksum isolates receive checksum placement: emulated hardware
// versus the LANai software loop (the paper's 75.6 vs 26.4 MB/s gap).
func AblationChecksum(totalBytes int) AblationRow {
	if totalBytes <= 0 {
		totalBytes = 10 << 20
	}
	return AblationRow{
		Name:          "receive checksum placement",
		BaselineLabel: "emulated hardware",
		VariantLabel:  "firmware loop",
		Baseline:      qpipTtcp(params.MTUQPIP, qpipnic.ChecksumEmulatedHW, TtcpChunk, totalBytes, nil),
		Variant:       qpipTtcp(params.MTUQPIP, qpipnic.ChecksumFirmware, TtcpChunk, totalBytes, nil),
	}
}

// AblationPipelinedTX isolates the transmit FSM's serialization against
// the network send engine: the prototype waited for the wire; a pipelined
// firmware overlaps the next WR's processing with serialization.
func AblationPipelinedTX(totalBytes int) AblationRow {
	if totalBytes <= 0 {
		totalBytes = 10 << 20
	}
	return AblationRow{
		Name:          "transmit FSM / send engine overlap",
		BaselineLabel: "serialized (prototype)",
		VariantLabel:  "pipelined",
		Baseline:      qpipTtcp(params.MTUQPIP, qpipnic.ChecksumEmulatedHW, TtcpChunk, totalBytes, nil),
		Variant: qpipTtcp(params.MTUQPIP, qpipnic.ChecksumEmulatedHW, TtcpChunk, totalBytes,
			func(cfg *core.NodeConfig) { cfg.QPIPPipelinedTX = true }),
	}
}

// AblationDelAck isolates firmware delayed acks: acking every second
// segment halves the expensive ACK-parse path (14 us of software
// multiplies per ACK, Table 3) on the sender's adapter. Delayed acks are
// the BSD-derived default; acking every segment is the variant.
func AblationDelAck(totalBytes int) AblationRow {
	if totalBytes <= 0 {
		totalBytes = 10 << 20
	}
	return AblationRow{
		Name:          "firmware ack policy",
		BaselineLabel: "delayed acks (BSD default)",
		VariantLabel:  "ack every segment",
		Baseline:      qpipTtcp(params.MTUEthernet, qpipnic.ChecksumEmulatedHW, TtcpChunk, totalBytes, nil),
		Variant: qpipTtcp(params.MTUEthernet, qpipnic.ChecksumEmulatedHW, TtcpChunk, totalBytes,
			func(cfg *core.NodeConfig) { cfg.QPIPNoDelAck = true }),
	}
}

// AblationMTU reports the QPIP MTU sweep (also part of Figure 4) as an
// ablation over segment size: per-message NIC costs amortize with MTU
// until the DMA and wire times dominate.
func AblationMTU(totalBytes int) []TtcpRow {
	if totalBytes <= 0 {
		totalBytes = 10 << 20
	}
	mtus := []int{1500, 4096, 9000, 16 * 1024, 32 * 1024}
	rows := make([]TtcpRow, len(mtus))
	sweep(len(mtus), func(i int) {
		m := qpipTtcp(mtus[i], qpipnic.ChecksumEmulatedHW, TtcpChunk, totalBytes, nil)
		rows[i] = TtcpRow{
			Stack: "QPIP", MTU: mtus[i],
			MBps: m.MBps, HostCPU: m.effectiveHostCPU(), NICCPU: m.NICCPU,
		}
	})
	return rows
}

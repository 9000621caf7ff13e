// Package params centralizes every calibration constant of the QPIP
// reproduction, each with its provenance. The hardware being simulated is
// the paper's testbed (§4.2): Dell PowerEdge 6350 servers (4 × 550 MHz
// Pentium-III, 64-bit/33 MHz PCI), a Myrinet LANai 9 programmable NIC
// (133 MHz RISC, 2 MB SRAM, 2 PCI DMA engines, 2 network engines), Myrinet
// 2.0 Gb/s links, and an Intel Pro1000 Gigabit Ethernet adapter.
package params

import "repro/internal/sim"

// Host platform.
const (
	// HostClockHz is the 550 MHz Pentium-III clock (paper §4.2).
	HostClockHz = 550e6
	// HostCPUs is the number of processors per server (4); the benchmarks
	// report utilization of one processor, as the paper does.
	HostCPUs = 4
)

// NIC platform.
const (
	// NICClockHz is the LANai 9 processor clock (paper §4.1: "a 133 MHz
	// general purpose RISC processor").
	NICClockHz = 133e6
	// NICSRAMBytes is the LANai on-board memory (2 MB).
	NICSRAMBytes = 2 << 20
)

// Interconnect.
const (
	// MyrinetBandwidth is the Myrinet link rate: 2.0 Gb/s full duplex
	// (paper §4.1).
	MyrinetBandwidth = 2.0e9 / 8 // bytes per second
	// MyrinetHopLatency is the per-switch cut-through forwarding latency.
	// Myrinet-2000 16-port crossbars forwarded in well under a
	// microsecond; 0.3 µs is the commonly quoted figure.
	MyrinetHopLatency = 300 * sim.Nanosecond
	// CableLatency is end-to-end propagation over a few meters of cable.
	CableLatency = 100 * sim.Nanosecond

	// GigEBandwidth is Gigabit Ethernet line rate.
	GigEBandwidth = 1.0e9 / 8
	// GigESwitchLatency is a store-and-forward GigE switch's forwarding
	// decision latency (on top of the re-serialization it implies).
	GigESwitchLatency = 2 * sim.Microsecond
	// EthernetOverhead is per-frame wire overhead: preamble+SFD (8),
	// Ethernet header (14), FCS (4), inter-frame gap (12).
	EthernetOverhead = 38
	// MyrinetHeaderBytes is the source-route plus type header on each
	// Myrinet packet plus trailing CRC.
	MyrinetHeaderBytes = 8

	// PCIBandwidth is the 64-bit/33 MHz PCI burst rate (264 MB/s peak)
	// derated to a realistic 80% burst efficiency.
	PCIBandwidth = 264e6 * 0.80
	// PCIDMASetup is the per-transaction DMA setup cost (bus acquisition,
	// descriptor fetch).
	PCIDMASetup = 500 * sim.Nanosecond
	// PCIWriteLatency is one posted programmed-I/O write crossing the PCI
	// bus — a doorbell ring.
	PCIWriteLatency = 250 * sim.Nanosecond
	// LANaiDMABandwidth is the effective host-memory DMA rate of the
	// LANai 9's PCI DMA engines — well under the bus peak (measured
	// LANai9 PCI read bandwidth was in the 130-160 MB/s range). This is
	// what calibrates QPIP's native-MTU ttcp point to the paper's
	// 75.6 MB/s: per 16 KB message the transmit FSM serializes
	// ~21.5 us of stage CPU + ~107 us payload DMA + ~66 us wire time.
	LANaiDMABandwidth = 150e6
	// GMDMABandwidth is the lower effective DMA rate of GM 1.4's staged
	// IP-mode path (packets cross adapter SRAM with less aggressive
	// bursting than the raw LANai engines achieve).
	GMDMABandwidth = 95e6
)

// QPIP NIC firmware stage costs, paper Table 2 (transmit) and Table 3
// (receive), in microseconds on the 133 MHz LANai. These are *inputs* to
// the simulator for per-stage occupancy and *outputs* of the Table 2/3
// benches (which re-measure them from the running firmware).
const (
	TxDoorbellProcUS = 1.0
	TxScheduleUS     = 2.0
	TxGetWRUS        = 5.5
	TxGetDataUS      = 4.5
	TxBuildTCPHdrUS  = 5.0
	TxBuildIPHdrUS   = 1.0
	TxSendUS         = 1.0
	TxUpdateUS       = 1.5

	RxDoorbellProcUS = 1.0
	RxMediaRcvUS     = 1.0
	RxIPParseUS      = 1.5
	RxTCPParseDataUS = 7.0
	// RxTCPParseAckUS is the ACK-parse cost: 14 µs, double the data case,
	// "because of a series of multiply operations for the RTT estimators.
	// The LANai 9 processor has no hardware multiply" (paper §4.2.2).
	RxTCPParseAckUS = 14.0
	RxGetWRUS       = 5.5
	RxPutDataUS     = 4.5
	RxUpdateDataUS  = 1.5
	RxUpdateAckUS   = 9.0

	// UDP header handling is far cheaper than TCP: no TCB, no RTT, no
	// window state. Derived so the UDP/TCP RTT gap matches Figure 3
	// (73 µs vs 113 µs with firmware checksums).
	TxBuildUDPHdrUS = 2.0
	RxUDPParseUS    = 2.5
)

// FirmwareChecksumCyclesPerByte is the software Internet checksum cost on
// the LANai (no hardware assist on the receive side, paper §4.2.1).
// Calibrated against the paper's firmware-checksum ttcp point (26.4 MB/s
// vs 75.6 MB/s with the emulated hardware checksum): ~4.9 cycles/byte,
// consistent with a load/add-with-carry loop plus the LANai's SRAM wait
// states.
const FirmwareChecksumCyclesPerByte = 4.9

// Host kernel stack cost model (Linux 2.4-class on the 550 MHz P-III).
// The per-message fixed costs are calibrated against paper Table 1
// (29.9 µs / 16445 cycles for a 1-byte TCP send+receive through loopback)
// and the per-byte costs against the standard 1 cycle/byte copy +
// 1 cycle/byte checksum of the era (Kay & Pasquale, cited by the paper).
const (
	// HostSyscallUS is entry/exit for read/write/send/recv.
	HostSyscallUS = 1.5
	// HostSockSendUS is socket-layer send processing per call (locking,
	// sockbuf bookkeeping) excluding the copy.
	HostSockSendUS = 2.0
	// HostTCPOutputUS is tcp_output per segment: TCB work, header build,
	// IP layer, routing cache hit.
	HostTCPOutputUS = 9.0
	// HostTCPInputUS is tcp_input per segment on the fast path (includes
	// the in-order queueing and sockbuf accounting Linux does there).
	HostTCPInputUS = 9.0
	// HostTCPAckProcUS is pure-ACK processing on the sender.
	HostTCPAckProcUS = 4.0
	// HostUDPOutputUS / HostUDPInputUS are the cheaper UDP paths.
	HostUDPOutputUS = 3.5
	HostUDPInputUS  = 3.0
	// HostDriverTxUS is driver enqueue + descriptor write per packet.
	HostDriverTxUS = 2.0
	// HostIRQUS is interrupt entry/exit plus driver RX reap, charged per
	// interrupt (coalescing divides it across packets).
	HostIRQUS = 6.0
	// HostSoftirqPerPktUS is protocol dispatch per received packet.
	HostSoftirqPerPktUS = 2.5
	// HostSkbUS is network buffer (skb) allocation/free per packet, paid
	// on both transmit and receive.
	HostSkbUS = 3.0
	// HostDriverRxReapUS is per-packet descriptor reaping inside the ISR.
	HostDriverRxReapUS = 2.0
	// HostWakeupUS is waking a blocked process (scheduler work).
	HostWakeupUS = 2.5
	// HostCopyCyclesPerByte is a user<->kernel copy (uncached destination).
	HostCopyCyclesPerByte = 1.0
	// HostChecksumCyclesPerByte is the Internet checksum; Linux folds it
	// into the copy on the receive path (copy_and_csum), modeled as
	// copy + 0.4 extra cycles/byte there.
	HostChecksumCyclesPerByte          = 1.0
	HostCopyChecksumExtraCyclesPerByte = 0.4
)

// QPIP host-side verbs costs. Calibrated against paper Table 1: the QPIP
// send+receive host overhead for a 1-byte message is 2.5 µs / 1386 cycles,
// "determined by directly timing the associated communication methods from
// user-space" (§4.2.2).
const (
	// VerbsPostSendUS covers building the send WR in the host-resident QP
	// and the uncached doorbell write (the PCI crossing itself is charged
	// separately to the bus).
	VerbsPostSendUS = 0.9
	// VerbsPostRecvUS builds a receive WR (no doorbell on the prototype's
	// receive path beyond the notification write).
	VerbsPostRecvUS = 0.8
	// VerbsPollUS is one successful CQ poll (cache-resident spin).
	VerbsPollUS = 0.8
	// VerbsModifyQPUS is one host-driven lifecycle transition (ModifyQP):
	// a state-table update in host memory, comparable to building a WR.
	VerbsModifyQPUS = 1.0
	// VerbsPollEmptyUS is an unsuccessful poll — pure cached read.
	VerbsPollEmptyUS = 0.05
	// VerbsWakeupUS is the prototype's "lightweight interrupt service
	// routine" (paper §4.1) waking a blocked CQ waiter — far cheaper than
	// the host stack's general interrupt path.
	VerbsWakeupUS = 2.0

	// Batch verbs (PostSendN/PostRecvN/PollN) amortize the fixed part of
	// each call — queue locking, state checks, the doorbell write — across
	// the batch: the first WR pays the full single-op cost above, each
	// subsequent WR only the marginal descriptor-build cost below.
	VerbsPostSendBatchUS = 0.3
	VerbsPostRecvBatchUS = 0.3
	VerbsPollBatchUS     = 0.2
)

// QPIP NIC collective-engine stage costs (DESIGN §15). The collective FSM
// is small relative to the TCP stages: no TCB, no RTT estimators, fixed
// tree/ring peers resolved at group-join time. Costs are modeled in the
// same per-stage style as Tables 2/3, sized between the cheap UDP header
// stages and the doorbell/schedule pair.
const (
	// CollPostUS is consuming one collective WR: doorbell drain, WR fetch
	// by DMA, group lookup, first message build.
	CollPostUS = 2.0
	// CollStepUS is one collective FSM step on an arriving message: parse,
	// group/op lookup, forward decision, next message build.
	CollStepUS = 1.5
	// CollReduceCyclesPerWord is the per-word combine cost of a reduction
	// step (load, add-with-carry chain, store on the multiply-less LANai).
	CollReduceCyclesPerWord = 6.0
)

// GigE adapter (Intel Pro1000-class) parameters.
const (
	// GigEIntCoalescePkts delivers one interrupt per this many packets
	// under load (absolute timer fallback below).
	GigEIntCoalescePkts = 8
	// GigEIntCoalesceDelay is the coalescing timer: an interrupt fires at
	// most this long after a packet arrives.
	GigEIntCoalesceDelay = 70 * sim.Microsecond
)

// GM adapter (Myrinet under GM in IP mode) interrupt moderation.
const (
	// GMIntCoalescePkts delivers one interrupt per this many packets
	// under load.
	GMIntCoalescePkts = 4
	// GMIntCoalesceDelay is the coalescing timer.
	GMIntCoalesceDelay = 50 * sim.Microsecond
)

// NBD / storage model (Figure 7's workload).
const (
	// DiskBandwidth approximates the PowerEdge's striped SCSI storage
	// streaming rate — fast enough that the network stacks, not the
	// disk, differentiate the three systems.
	DiskBandwidth = 90e6
	// DiskSeek is the per-request positioning cost for sequential access
	// (track-to-track + rotational average across a streaming run).
	DiskSeek = 800 * sim.Microsecond
	// FSBlockSize is the ext2 block size used in the benchmark.
	FSBlockSize = 4096
	// FSPerBlockUS is filesystem CPU per block (block mapping, page cache,
	// ext2 indirect blocks amortized): calibrated so that "the raw CPU
	// utilization during the benchmark is at least 26% for filesystem
	// processing" (paper §4.2.3).
	FSPerBlockUS = 14.0
	// NBDRequestBytes is the block-layer request size after merging
	// (Linux readahead/clustering of the era: 64 KB).
	NBDRequestBytes = 64 * 1024
	// NBDQueueDepth is the client driver's outstanding-request limit.
	NBDQueueDepth = 8
)

// Robustness knobs: retry budgets and adapter state-table capacity.
const (
	// TCPMaxRetries bounds consecutive retransmission timeouts of one
	// segment before the connection is declared dead (BSD's
	// TCP_MAXRXTSHIFT, which the prototype's Stevens & Wright-derived
	// stack inherited). With exponential backoff from a 200 ms floor this
	// is on the order of minutes of simulated persistence.
	TCPMaxRetries = 12
	// TCPSynMaxRetries bounds handshake (SYN / SYN|ACK) retransmissions —
	// the connect-timeout budget. Backoff doubles from the 3 s initial
	// RTO, so the budget caps a failed active open at
	// 3 * (2^(TCPSynMaxRetries+1) - 1) seconds of simulated time.
	TCPSynMaxRetries = 5
	// QPIPMaxQPs bounds adapter-resident connection state: the LANai's
	// 2 MB SRAM holds the firmware working set plus per-QP TCBs (a few KB
	// each), so the state table is a hard, exhaustible resource. QP
	// creation beyond it is refused (verbs.ErrNoResources).
	QPIPMaxQPs = 512
)

// Per-connection memory footprints (DESIGN §16). These size the state that
// dominates at thousands of concurrent connections — the axis the connscale
// experiment measures. Adapter-side figures are SRAM bytes on the LANai;
// host-side figures are what a Linux 2.4-class kernel and the verbs
// library pin in host memory per connection.
const (
	// SRAMConnBytes is the adapter-SRAM footprint of one live connection:
	// the record-mode TCB (sequence state, RTT estimators, retransmit
	// bookkeeping) plus the firmware QP context (WR cursors, doorbell and
	// timer state). Sized so QPIPMaxQPs of them fit the 2 MB SRAM beside
	// the firmware working set.
	SRAMConnBytes = 1536
	// SRAMQPSlotBytes is one QP state-table slot: the hashed-QPN index
	// entry plus the dense-table element header.
	SRAMQPSlotBytes = 16
	// HostTCBBytes is the host kernel's per-connection TCP control block
	// (struct sock + tcp_opt on Linux 2.4, excluding socket buffers).
	HostTCBBytes = 1280
	// HostSockBytes is the non-TCB kernel overhead of one open socket:
	// file table entry, inode/dentry glue, wait queues.
	HostSockBytes = 512
	// HostQPBytes is the verbs library's per-QP host bookkeeping (queue
	// headers and cursors; WR descriptors are accounted separately).
	HostQPBytes = 192
	// HostWRBytes is one work-request descriptor in a host-resident queue
	// (the buffer it points at is accounted at its capacity).
	HostWRBytes = 32
)

// MTUs (paper §4.2.1).
const (
	MTUEthernet = 1500
	MTUJumbo    = 9000
	MTUQPIP     = 16 * 1024 // QPIP native MTU: "native MTUs (16KB in the case of QPIP)"
)

// US converts a microsecond constant to sim.Time.
func US(us float64) sim.Time { return sim.Micros(us) }

// HostCycles converts host CPU cycles to sim.Time.
func HostCycles(c float64) sim.Time { return sim.Time(c * 1e9 / HostClockHz) }

// NICCycles converts NIC CPU cycles to sim.Time.
func NICCycles(c float64) sim.Time { return sim.Time(c * 1e9 / NICClockHz) }

// Package qpipnic implements the QPIP network interface firmware — the
// paper's core contribution (§3, §4.1). The adapter offloads the complete
// TCP/UDP/IPv6 stack beneath the queue pair abstraction. Its operation is
// organized as the paper's four finite state machines:
//
//   - doorbell FSM: drains the hardware doorbell FIFO and marks QPs with
//     outstanding work requests;
//   - management FSM: privileged commands (QP/CQ creation, port binding,
//     connection management);
//   - schedule/transmit FSM: polls active endpoints, fetches WRs and data
//     by DMA, builds TCP/UDP and IPv6 headers, and injects packets;
//   - receive FSM: parses arriving packets, runs TCP input processing
//     (RTT estimators, window state), places data by DMA and posts
//     completions.
//
// Every stage charges the 133 MHz firmware processor the stage costs the
// paper measured (Tables 2 and 3), so the simulated adapter's occupancy —
// the quantity that limits QPIP at small MTUs (§4.2.1) — emerges from the
// same per-stage accounting the LANai prototype exhibited.
package qpipnic

import (
	"errors"
	"fmt"

	"repro/internal/buf"
	"repro/internal/fabric"
	"repro/internal/hw"
	"repro/internal/inet"
	"repro/internal/params"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/trace"
	"repro/internal/udp"
	"repro/internal/verbs"
)

// ChecksumMode selects receive-side IP checksum placement (paper §4.2.1:
// the LANai could not hardware-checksum on receive; results are reported
// both with an emulated hardware checksum and a firmware checksum).
type ChecksumMode int

const (
	// ChecksumEmulatedHW models the hardware-assisted receive checksum
	// the figures assume: verification is free to the firmware CPU.
	ChecksumEmulatedHW ChecksumMode = iota
	// ChecksumFirmware charges the software checksum loop
	// (params.FirmwareChecksumCyclesPerByte).
	ChecksumFirmware
)

// Config parameterizes a QPIP adapter.
type Config struct {
	Name string
	// Addr is the adapter's IPv6 address.
	Addr inet.Addr6
	// MTU is the native MTU; one QP message maps to one TCP segment, so
	// MaxMessage = MTU - headers (paper §4.1; 16 KB native).
	MTU int
	// Checksum selects receive checksum placement.
	Checksum ChecksumMode
	// PipelinedTX lets the transmit FSM start the next work request while
	// the network send engine is still serializing the previous packet.
	// The prototype's simple FSM loop did not (ablation knob).
	PipelinedTX bool
	// NoDelAck disables the firmware's BSD-style delayed acks (ack at
	// least every second segment). The prototype's TCP derives from the
	// BSD code in Stevens & Wright, where delayed acks are the default;
	// disabling them is the ablation.
	NoDelAck bool
	// HostCPU is the processor verbs costs and wakeup interrupts land on.
	HostCPU *sim.CPU
	// Bus is the host's PCI bus, shared with other adapters.
	Bus *hw.PCIBus
	// Routes resolves IPv6 addresses to fabric attachments (the
	// prototype's static address resolution table, §4.1).
	Routes *inet.Table6
	// MaxQPs bounds adapter-resident QP/TCB state (SRAM is finite);
	// 0 means params.QPIPMaxQPs. CreateQP beyond it is refused with
	// verbs.ErrNoResources — graceful degradation, not a hang.
	MaxQPs int
	// CQCoalescePkts / CQCoalesceDelay pace the per-CQ completion event
	// lines (the unified hw.IRQLine model the conventional adapters also
	// use). Zero values deliver every armed-waiter event immediately —
	// timing-identical to the pre-coalescing direct wake.
	CQCoalescePkts  int
	CQCoalesceDelay sim.Time
}

// qpState is the adapter-resident state of one QP: the inter-network
// protocol state (the TCB) plus WR bookkeeping. "A common data structure
// is used to maintain the state of the individual QPs and includes the
// inter-network protocol specific information, namely the TCP
// transmission control block" (paper §3.1). Its fields are ordered widest
// first, which keeps it in a 160-byte size class.
type qpState struct {
	qp   *verbs.QP
	conn *tcp.Conn // nil for UDP QPs

	// sendIDs holds WR IDs of messages accepted by the TCB, in order;
	// TCP completions pop from the front as records are acknowledged.
	sendIDs pool.Ring[uint64]
	// stash holds in-order records that arrived before their receive WR
	// was posted; they wait in adapter SRAM.
	stash pool.Ring[buf.Buf]
	timer *sim.Event
	// timerFn is pre-bound at QP creation so the timer path never
	// allocates a closure.
	timerFn func()

	remoteAtt int
	// pendingWRs counts doorbell tokens not yet consumed by the
	// transmit FSM.
	pendingWRs int
	// stashBytes tracks the SRAM bytes pinned by stashed records (part of
	// the connection's accounted SRAM footprint).
	stashBytes int
	// rnr counts receiver-not-ready events on this connection: in-order
	// records that arrived with no posted receive WR and had to wait in
	// adapter SRAM (the QPIP analog of an Infiniband RNR NAK; the TCP
	// window closes instead of NAKing).
	rnr uint64

	remoteAddr inet.Addr6
	localPort  uint16
	remotePort uint16
	// peerEpoch is the sender boot generation this connection is fenced
	// to: adopted from the first frame, stale frames dropped, a newer
	// epoch fails the QP (the peer rebooted; see DESIGN §13).
	peerEpoch  uint32
	peerClosed bool
	// srqWait marks a QP of a shared pool parked on the pool's waiter
	// FIFO (dup-idempotent enqueue).
	srqWait bool
}

// key is the QP's connection key in the adapter's endpoint table.
func (qs *qpState) key() tcp.Key[inet.Addr6] {
	return tcp.Key[inet.Addr6]{LocalPort: qs.localPort, RemoteAddr: qs.remoteAddr, RemotePort: qs.remotePort}
}

// tcpTimer names the per-QP TCB timer event.
const tcpTimer = "qpip.tcp.timer"

func (qs *qpState) pushStash(rec buf.Buf) {
	qs.stashBytes += rec.Len()
	qs.stash.Push(rec)
}

func (qs *qpState) popStash() buf.Buf {
	rec, _ := qs.stash.Pop()
	qs.stashBytes -= rec.Len()
	return rec
}

// clearSendState drops the send-ID and stash queues with the SRAM they
// account for, returning the send IDs still owed a completion.
func (qs *qpState) clearSendState() pool.Ring[uint64] {
	ids := qs.sendIDs
	qs.sendIDs.Reset()
	qs.stash.Reset()
	qs.stashBytes = 0
	return ids
}

// Stats is a read-only view of the adapter's Net counters.
type Stats struct {
	// StashedRecords reads "rx.rnr": receive drains that left in-order
	// records waiting in SRAM for a receive WR.
	StashedRecords uint64
}

// NIC is one QPIP adapter.
type NIC struct {
	eng *sim.Engine
	cfg Config
	cpu *sim.CPU
	db  *hw.Doorbell
	fab *fabric.Fabric
	att int

	// dbTokens and recvPosts hold doorbell tokens and posted-to pools
	// between the PIO write and its arrival at the adapter.
	dbTokens  *sim.Jobs[uint64]
	recvPosts *sim.Jobs[*verbs.SRQ]
	// notifyDMA and notifyISR hold a host notification across its event
	// DMA and then the host's ISR charge (notifyHost).
	notifyDMA, notifyISR *sim.Jobs[func()]

	qpnNext uint32
	// qpnFree recycles destroyed QPNs LIFO (deterministic). It is wiped
	// on crash, preserving the invariant that a rebooted adapter never
	// reissues a pre-crash QPN (epoch fencing relies on it).
	qpnFree []uint32
	// qps is the hashed QP state table (qptable.go): the flat per-QPN
	// map became a fixed-layout SRAM structure once connection counts
	// grew past hundreds.
	qps *qpTable
	// srqs is the adapter-side state of shared pools with a parked
	// connection, resolved in O(1); owned pools never appear here.
	srqs map[*verbs.SRQ]*srqState
	// tcp is the TCP endpoint table (demux, listeners, ports, ISS), shared
	// in kind with the host kernel.
	tcp      *tcp.Endpoints[inet.Addr6, *qpState, *verbs.Listener]
	udpPorts *udp.PortSpace[*qpState]

	// collGroups is the collective engine's group table (coll.go): one
	// entry per joined group, keyed access only.
	collGroups map[uint16]*collGroup

	// down marks a crashed adapter: frames are dropped on the floor and
	// management verbs refuse with verbs.ErrNICDown until Restart.
	down bool
	// bootEpoch is the adapter's boot generation, stamped on every
	// outgoing frame; it starts at 1 and increments on Restart so
	// receivers can fence pre-crash stragglers (crash.go).
	bootEpoch uint32

	// Transmit FSM scheduler (see kickTx); txDoneFn is the one
	// per-adapter work-completion callback. txBound is what the admitted
	// QPs can have queued at once: each posted send WR, and the data
	// segment it becomes (twice the QP's send depth). The doorbell FSM
	// reserves the queue at it, so sending grows it straight to that
	// bound; only acks and retransmissions beyond it can grow it further,
	// and an adapter that never sends keeps the queue its acks need.
	txQ      pool.Ring[txWork]
	txBound  int
	txBusy   bool
	txDoneFn func()
	// txRun is the runner of the work item in flight, from its first
	// stage until the runner is freed; nil when the FSM is idle or
	// between a take-WR hand-off and the next item. The emission floor
	// (emissionFloor) reads it, with minStart: the least firmware time
	// from a trigger to a send none of whose stages has begun.
	txRun    *chainRun
	minStart sim.Time

	// Pooled FSM stage runners and their pre-resolved stage templates.
	chainTemplates
	chainFree []*chainRun

	// dbScratch is the doorbell FSM's vectored drain buffer (PopN).
	dbScratch [64]uint64
	// connStats is DebugConnStats' buffer, reused from call to call.
	connStats []ConnStats

	// Per-stage occupancy, split by the four table columns.
	TxData, TxAck, RxData, RxAck *trace.Stages
	// Net counts the adapter's events, one cell per event, under the
	// names the host kernel shares (DESIGN §16.6). The per-packet cells
	// are resolved once.
	Net                                           *trace.Counters
	rxCorrupt, rxNoPort, rxNoWR, rxRNR, txNoRoute *uint64

	// The collective engine's state (coll.go): collFree recycles ring
	// messages and collRecv holds each delivery across its FSM stage;
	// collLive counts messages handed out here minus messages recycled
	// here, so the sum over a cluster's adapters is the number
	// outstanding. The counter cells are resolved once so the per-message
	// path skips the name map.
	collFree []*collMsg
	collRecv *sim.Jobs[collDelivery]
	// collDoorbells and collPosts hold a posted collective WR across its
	// doorbell write and then its firmware stage (PostColl).
	collDoorbells, collPosts *sim.Jobs[collPostJob]
	collLive                 int
	collMsgs                 *uint64
	collDupDrop              *uint64
}

// New builds an adapter and attaches it to fab.
func New(eng *sim.Engine, fab *fabric.Fabric, cfg Config) *NIC {
	if cfg.MTU <= 0 {
		cfg.MTU = params.MTUQPIP
	}
	n := &NIC{
		eng:        eng,
		cfg:        cfg,
		cpu:        sim.NewCPU(eng, cfg.Name+".lanai", params.NICClockHz),
		db:         hw.NewDoorbell(1024),
		fab:        fab,
		qps:        newQPTable(),
		srqs:       make(map[*verbs.SRQ]*srqState),
		udpPorts:   udp.NewPortSpace[*qpState](),
		bootEpoch:  1,
		collGroups: make(map[uint16]*collGroup),
		TxData:     trace.NewStages(),
		TxAck:      trace.NewStages(),
		RxData:     trace.NewStages(),
		RxAck:      trace.NewStages(),
		Net:        trace.NewCounters(),
	}
	n.tcp = tcp.NewEndpoints[inet.Addr6, *qpState, *verbs.Listener](n.Net.Handle)
	n.rxCorrupt = n.Net.Handle("rx.corrupt")
	n.rxNoPort = n.Net.Handle("rx.drop.no-port")
	n.rxNoWR = n.Net.Handle("rx.drop.no-wr")
	n.rxRNR = n.Net.Handle("rx.rnr")
	n.txNoRoute = n.Net.Handle("tx.drop.no-route")
	n.collMsgs = n.Net.Handle("coll.msgs")
	n.collDupDrop = n.Net.Handle("coll.dup-drop")
	n.initTemplates()
	n.txDoneFn = func() {
		n.txBusy = false
		n.kickTx()
	}
	n.dbTokens = sim.NewJobs(func(tok uint64) { n.db.Ring(tok) })
	n.recvPosts = sim.NewJobs(n.onRecvPosted)
	n.notifyDMA = sim.NewJobs(func(fn func()) {
		n.cfg.HostCPU.Do(params.US(params.HostIRQUS), "qpip.isr", n.notifyISR.Add(fn))
	})
	n.notifyISR = sim.NewJobs(func(fn func()) { fn() })
	n.collRecv = sim.NewJobs(n.collStep)
	n.collDoorbells = sim.NewJobs(n.onCollDoorbell)
	n.collPosts = sim.NewJobs(n.collPost)
	n.att = fab.AttachOn(eng, n.receiveFrame)
	fab.SetFloor(n.att, n.emissionFloor)
	n.db.OnRing = n.onDoorbell
	n.db.OnDrop = func() { n.Net.Add("db.drop", 1) }
	return n
}

// Addr reports the adapter's IPv6 address.
func (n *NIC) Addr() inet.Addr6 { return n.cfg.Addr }

// Attachment reports the adapter's fabric attachment id.
func (n *NIC) Attachment() int { return n.att }

// CPU exposes the firmware processor (occupancy measurements).
func (n *NIC) CPU() *sim.CPU { return n.cpu }

// Stats returns the adapter counters read as a struct.
func (n *NIC) Stats() Stats { return Stats{StashedRecords: *n.rxRNR} }

// ConnStats is one connection's diagnostic record: its identity, the TCB
// counters, and its share of the adapter's "rx.rnr" count.
type ConnStats struct {
	LocalPort  uint16
	RemoteAddr inet.Addr6
	RemotePort uint16
	TCP        tcp.Stats
	// RNR counts receiver-not-ready stalls (records parked in SRAM for
	// want of a posted receive WR).
	RNR uint64
}

// DebugConnStats exposes per-connection diagnostics with stable sorted
// emission (connection-key order). The slice is the adapter's own buffer,
// valid until the next call, so read it at once; a call allocates nothing
// once the buffer has reached the connection count.
func (n *NIC) DebugConnStats() []ConnStats {
	conns := n.tcp.Conns()
	out := n.connStats[:0]
	if cap(out) < len(conns) {
		out = make([]ConnStats, 0, len(conns))
	}
	for _, qs := range conns {
		out = append(out, ConnStats{
			LocalPort:  qs.localPort,
			RemoteAddr: qs.remoteAddr,
			RemotePort: qs.remotePort,
			TCP:        qs.conn.Stats(),
			RNR:        qs.rnr,
		})
	}
	n.connStats = out
	return out
}

// SRAMFootprint reports the adapter SRAM pinned by connection state right
// now: the state-table index, one TCB+QP context per live entry, and
// stashed records. This is the per-connection-memory quantity the
// connscale experiment sweeps.
func (n *NIC) SRAMFootprint() int {
	total := n.qps.slots() * params.SRAMQPSlotBytes
	for _, e := range n.qps.entries {
		if e.qs != nil {
			total += params.SRAMConnBytes + e.qs.stashBytes
		}
	}
	return total
}

// LiveQPs reports live state-table entries.
func (n *NIC) LiveQPs() int { return n.qps.len() }

// ResetStages clears occupancy instrumentation (benchmark warmup).
func (n *NIC) ResetStages() {
	n.TxData.Reset()
	n.TxAck.Reset()
	n.RxData.Reset()
	n.RxAck.Reset()
}

// ---- verbs.Device implementation (management FSM). ----

// HostCPU implements verbs.Device.
func (n *NIC) HostCPU() *sim.CPU { return n.cfg.HostCPU }

// MaxMessage implements verbs.Device: one message maps onto one TCP
// segment, so messages are bounded by MTU minus IPv6 and TCP headers
// (with the RFC 1323 timestamp option the prototype always sends).
func (n *NIC) MaxMessage() int {
	return n.cfg.MTU - inet.IPv6HeaderLen - tcp.BaseHeaderLen - tcp.TimestampOptLen
}

// maxQPs reports the adapter's QP/TCB state-table capacity.
func (n *NIC) maxQPs() int {
	if n.cfg.MaxQPs > 0 {
		return n.cfg.MaxQPs
	}
	return params.QPIPMaxQPs
}

// admitQP allocates a fresh state-table entry for qp, refusing on SRAM
// exhaustion (shared by CreateQP and post-crash ResetQP re-admission).
func (n *NIC) admitQP(qp *verbs.QP) error {
	if n.qps.len() >= n.maxQPs() {
		n.Net.Add("qp.exhausted", 1)
		return &verbs.QPExhaustedError{Current: n.qps.len(), Capacity: n.maxQPs()}
	}
	qs := &qpState{qp: qp}
	n.txBound += 2 * qp.SendDepth()
	// The TCB timer: the transmit FSM "monitors for timeout/retransmit
	// events pending on a QP" (paper §3.1).
	qs.timerFn = func() {
		qs.timer = nil
		n.handleActions(qs, n.tcp.OnTimer(qs.conn, int64(n.eng.Now())), nil)
		n.eng.Rearm(&qs.timer, qs.conn, tcpTimer, qs.timerFn)
	}
	n.qps.put(qp.QPN, qs)
	return nil
}

// AllocQPN implements verbs.Device: per-adapter allocation, offset by the
// fabric attachment id so QPNs stay cluster-unique and deterministic no
// matter how shard engines interleave QP creation. Low QPNs are reserved,
// as in Infiniband. Destroyed QPNs recycle LIFO so connection churn does
// not grow the number space (and with it the state-table index) without
// bound; the free list is wiped on crash, so the counter's invariant
// survives — a rebooted adapter never reissues a pre-crash QPN.
func (n *NIC) AllocQPN() uint32 {
	if k := len(n.qpnFree); k > 0 {
		qpn := n.qpnFree[k-1]
		n.qpnFree = n.qpnFree[:k-1]
		n.Net.Add("qpn.recycled", 1)
		return qpn
	}
	n.qpnNext++
	return uint32(n.att)<<16 | (16 + n.qpnNext)
}

// CreateQP implements verbs.Device. The state table lives in finite
// adapter SRAM; exhaustion refuses the QP instead of overcommitting.
func (n *NIC) CreateQP(qp *verbs.QP) error {
	if n.down {
		return verbs.ErrNICDown
	}
	n.mgmtCost()
	return n.admitQP(qp)
}

// ResetQP implements verbs.Device: return a QP to the reset state on the
// adapter. A live TCB is aborted (the peer gets an RST), the entry's WR
// and stash bookkeeping is wiped, and consumed-but-unacked send WRs
// complete with StatusFlushed — first in the deterministic flush order
// (the host's ModifyQP flushes the posted queues right after). If the
// adapter crashed since the QP was created, the state-table entry is gone
// and the QP is re-admitted subject to capacity.
func (n *NIC) ResetQP(qp *verbs.QP) error {
	if n.down {
		return verbs.ErrNICDown
	}
	n.mgmtCost()
	qs := n.qps.get(qp.QPN)
	if qs == nil {
		// Crash wiped the state table: re-admission path.
		return n.admitQP(qp)
	}
	if qs.conn != nil {
		n.tcp.Reap(qs.key(), qs)
		// The RST outlives the reset's wipe of qs.
		for _, seg := range qs.conn.Abort(int64(n.eng.Now())).Segments {
			n.sendBare(seg, qs.remoteAddr, qs.remoteAtt)
		}
		qs.conn = nil
	} else if qs.localPort != 0 {
		n.udpPorts.Unbind(qs.localPort)
	}
	sim.Disarm(&qs.timer)
	ids := qs.clearSendState()
	for id, ok := ids.Pop(); ok; id, ok = ids.Pop() {
		qp.CompleteSend(id, verbs.StatusFlushed, 0)
	}
	qs.pendingWRs = 0
	qs.peerClosed = false
	qs.peerEpoch = 0
	qs.rnr = 0
	qs.localPort, qs.remotePort, qs.remoteAtt = 0, 0, 0
	qs.remoteAddr = inet.Addr6{}
	return nil
}

// DestroyQP implements verbs.Device: closes any connection and flushes.
// The state-table entry is recycled, and so is the QPN — churn reuses
// slots instead of growing the table.
func (n *NIC) DestroyQP(qp *verbs.QP) {
	qs := n.qps.get(qp.QPN)
	if qs == nil {
		return
	}
	n.mgmtCost()
	if qs.conn != nil {
		now := int64(n.eng.Now())
		acts, err := qs.conn.Close(now)
		if err == nil {
			n.handleActions(qs, acts, nil)
		}
		n.eng.Rearm(&qs.timer, qs.conn, tcpTimer, qs.timerFn)
	}
	if qs.localPort != 0 && qs.conn == nil {
		n.udpPorts.Unbind(qs.localPort)
	}
	qp.Flush()
	n.qps.del(qp.QPN)
	n.txBound -= 2 * qp.SendDepth()
	n.qpnFree = append(n.qpnFree, qp.QPN)
}

// BindUDP implements verbs.Device.
func (n *NIC) BindUDP(qp *verbs.QP, port uint16) (uint16, error) {
	qs := n.qps.get(qp.QPN)
	if qs == nil {
		return 0, errors.New("qpipnic: unknown QP")
	}
	if n.down {
		return 0, verbs.ErrNICDown
	}
	n.mgmtCost()
	got, err := n.udpPorts.Bind(port, qs)
	if err != nil {
		return 0, err
	}
	qs.localPort = got
	return got, nil
}

// connConfig builds the record-mode TCB configuration template for a QP
// (the endpoint table fills in ports and ISS).
func (n *NIC) connConfig() tcp.Config {
	return tcp.Config{
		Mode:       tcp.Record,
		MSS:        n.MaxMessage(),
		RecvWindow: -1, // window derives from posted receive WRs
		// 1 MB cap picks window scale 5 (32-byte granularity); larger caps
		// would round small posted-WR windows down to zero and stall tiny
		// messages.
		MaxRecvWindow: 1 << 20,
		WindowScale:   true,
		Timestamps:    true,
		DelayedAck:    !n.cfg.NoDelAck,
		NoDelay:       true,
		MaxRetries:    params.TCPMaxRetries,
		SynMaxRetries: params.TCPSynMaxRetries,
	}
}

// Connect implements verbs.Device: active open. The SYN/ACK handshake is
// handled entirely by the interface (paper §3).
func (n *NIC) Connect(qp *verbs.QP, raddr inet.Addr6, rport uint16) error {
	qs := n.qps.get(qp.QPN)
	if qs == nil {
		return errors.New("qpipnic: unknown QP")
	}
	if n.down {
		return verbs.ErrNICDown
	}
	att, err := n.cfg.Routes.Lookup(raddr)
	if err != nil {
		return fmt.Errorf("%w: %v", verbs.ErrNoRoute, raddr)
	}
	n.mgmtCost()
	conn, port, err := n.tcp.Connect(raddr, rport, qs, n.connConfig())
	if err != nil {
		return err
	}
	qs.localPort, qs.conn = port, conn
	qs.remoteAddr, qs.remotePort, qs.remoteAtt = raddr, rport, att
	conn.ReserveRecords(qp.SendDepth())
	now := int64(n.eng.Now())
	acts, err := qs.conn.Connect(now)
	if err != nil {
		return err
	}
	n.handleActions(qs, acts, nil)
	n.eng.Rearm(&qs.timer, qs.conn, tcpTimer, qs.timerFn)
	return nil
}

// Listen implements verbs.Device: "The server application instructs the
// interface to monitor a TCP port for incoming connections" (paper §3).
func (n *NIC) Listen(port uint16) (*verbs.Listener, error) {
	if n.down {
		return nil, verbs.ErrNICDown
	}
	l := verbs.NewListener(port, n)
	if n.tcp.Listen(port, l) != nil {
		return nil, verbs.ErrPortBusy
	}
	n.mgmtCost()
	return l, nil
}

// dbToken encodes a doorbell token: the QPN in the low 32 bits, the WR
// count in the high 32.
func dbToken(qpn uint32, count int) uint64 {
	return uint64(qpn) | uint64(uint32(count))<<32
}

// SendDoorbell implements verbs.Device: the host's posting method rings
// the hardware doorbell with one token announcing count posted send WRs —
// a single PIO write across the bus into the FIFO, whatever the batch
// size.
func (n *NIC) SendDoorbell(qp *verbs.QP, count int) {
	n.cfg.Bus.PIOWrite("doorbell", n.dbTokens.Add(dbToken(qp.QPN, count)))
}

// RecvPosted implements verbs.Device: new receive buffer space arrived in
// pool. One notification write crosses the bus like a doorbell, whatever
// the batch size; on arrival the firmware grows the TCP receive window
// (onRecvPosted).
func (n *NIC) RecvPosted(pool *verbs.SRQ, count int) {
	n.cfg.Bus.PIOWrite("recv-doorbell", n.recvPosts.Add(pool))
}

// AttachCQ implements verbs.Device: bind the CQ's completion wakeups to
// a coalescible event line. The ISR only wakes the armed waiter — the
// lightweight-ISR CPU cost stays charged in CQ.Wait (VerbsWakeupUS), so
// with zero coalescing delay a wake lands at the instant of the Push.
func (n *NIC) AttachCQ(cq *verbs.CQ) {
	line := hw.NewIRQLine(n.eng, func(int) { cq.EventWake() })
	line.SetCoalesce(n.cfg.CQCoalescePkts, n.cfg.CQCoalesceDelay)
	cq.BindEvent(line)
}

// updateWindow re-advertises the window from posted WR capacity.
//
//qpip:hotpath
func (n *NIC) updateWindow(qs *qpState) {
	if qs.conn == nil {
		return
	}
	posted := qs.qp.PostedRecvBytes()
	acts := qs.conn.SetRecvWindow(posted, int64(n.eng.Now()))
	n.handleActions(qs, acts, nil)
	n.eng.Rearm(&qs.timer, qs.conn, tcpTimer, qs.timerFn)
	// A connection on a shared pool that just advertised off an empty
	// pool parks on it: only a repost can reopen its window, and the
	// peer's probes would otherwise see zero forever.
	if posted == 0 {
		n.enqueueSRQWaiter(qs)
	}
}

// LiveConns reports the number of TCBs resident in the adapter's demux
// table — the churn benches assert it returns to baseline.
func (n *NIC) LiveConns() int { return n.tcp.Len() }

// mgmtUS is the management FSM's firmware cost per privileged command.
const mgmtUS = 5.0

// mgmtCost charges the management FSM for one privileged command.
func (n *NIC) mgmtCost() {
	n.cpu.Do(params.US(mgmtUS), "mgmt", nil)
}

// notifyHost schedules a host-visible event (connection established,
// errors) through the lightweight interrupt path.
func (n *NIC) notifyHost(fn func()) {
	n.cfg.Bus.DMA(32, "event", n.notifyDMA.Add(fn))
}

// failQP tears down a QP after a terminal connection failure: the TCB is
// unlinked, the timer cancelled, and — asynchronously, through the host
// notification path — every outstanding WR completes exactly once with
// status. That includes send WRs the firmware already consumed
// (qs.sendIDs, in flight or queued in the TCB) which a plain Flush would
// leak, violating the DESIGN §8 completion invariant.
func (n *NIC) failQP(qs *qpState, err error, status verbs.Status) {
	n.tcp.Reap(qs.key(), qs)
	sim.Disarm(&qs.timer)
	ids := qs.clearSendState()
	//lint:qpip-allow hotprop terminal failure teardown runs once per connection death, never on the steady-state path
	n.notifyHost(func() {
		for id, ok := ids.Pop(); ok; id, ok = ids.Pop() {
			qs.qp.CompleteSend(id, status, 0)
		}
		qs.qp.SetFailed(err, status)
	})
}

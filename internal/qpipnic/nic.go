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
	"bytes"
	"errors"
	"fmt"
	"sort"

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

// tcpKey demultiplexes established connections.
type tcpKey struct {
	localPort  uint16
	remoteAddr inet.Addr6
	remotePort uint16
}

// qpState is the adapter-resident state of one QP: the inter-network
// protocol state (the TCB) plus WR bookkeeping. "A common data structure
// is used to maintain the state of the individual QPs and includes the
// inter-network protocol specific information, namely the TCP
// transmission control block" (paper §3.1).
type qpState struct {
	qp   *verbs.QP
	conn *tcp.Conn // nil for UDP QPs

	localPort  uint16
	remoteAddr inet.Addr6
	remotePort uint16
	remoteAtt  int

	// sendIDs holds WR IDs of messages accepted by the TCB, in order;
	// TCP completions pop from the front as records are acknowledged.
	sendIDs pool.Ring[uint64]
	// pendingWRs counts doorbell tokens not yet consumed by the
	// transmit FSM.
	pendingWRs int
	// stash holds in-order records that arrived before their receive WR
	// was posted; they wait in adapter SRAM.
	stash      pool.Ring[buf.Buf]
	timer      *sim.Event
	peerClosed bool
	// peerEpoch is the sender boot generation this connection is fenced
	// to: adopted from the first frame, stale frames dropped, a newer
	// epoch fails the QP (the peer rebooted; see DESIGN §13).
	peerEpoch uint32
	// stashBytes tracks the SRAM bytes pinned by stashed records (part of
	// the connection's accounted SRAM footprint).
	stashBytes int
	// srqs links an SRQ-attached QP to the adapter-side pool state;
	// srqWait marks it parked on the pool's waiter FIFO (dup-idempotent
	// enqueue).
	srqs    *srqState
	srqWait bool
	// rnr counts receiver-not-ready events on this connection: in-order
	// records that arrived with no posted receive WR and had to wait in
	// adapter SRAM (the QPIP analog of an Infiniband RNR NAK; the TCP
	// window closes instead of NAKing).
	rnr uint64
	// staleEpoch counts frames fenced off this connection as pre-crash
	// stragglers.
	staleEpoch uint64

	// Pre-bound callbacks (set at QP creation) so the hot doorbell,
	// receive-posted, and timer paths never allocate a closure.
	timerFn func()
	ringFn  func()
	recvFn  func()
}

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

// Stats counts adapter-level events.
type Stats struct {
	DataSends, AckSends uint64
	DataRecvs, AckRecvs uint64
	UDPSends, UDPRecvs  uint64
	ChecksumErrors      uint64
	NoRouteDrops        uint64
	NoPortDrops         uint64
	NoWRDrops           uint64
	StashedRecords      uint64
	Retransmissions     uint64
}

// NIC is one QPIP adapter.
type NIC struct {
	eng *sim.Engine
	cfg Config
	cpu *sim.CPU
	db  *hw.Doorbell
	fab *fabric.Fabric
	att int

	// dbTokens queues vectored doorbell tokens between the PIO write call
	// and its arrival at the adapter; the bus server is FIFO, so tokens
	// pop in write order. ringTokFn is bound once here so SendDoorbellN
	// needs no per-call closure.
	dbTokens  pool.Ring[uint64]
	ringTokFn func()

	qpnNext uint32
	// qpnFree recycles destroyed QPNs LIFO (deterministic). It is wiped
	// on crash, preserving the invariant that a rebooted adapter never
	// reissues a pre-crash QPN (epoch fencing relies on it).
	qpnFree []uint32
	// qps is the hashed QP state table (qptable.go): the flat per-QPN
	// map became a fixed-layout SRAM structure once connection counts
	// grew past hundreds.
	qps *qpTable
	// srqs is the adapter-side state of host SRQs, in attach order.
	srqs      []*srqState
	tcpConns  map[tcpKey]*qpState
	listeners map[uint16]*verbs.Listener
	udpPorts  *udp.PortSpace[*qpState]
	tcpPorts  map[uint16]bool // allocated TCP local ports
	nextEphem uint16
	issCount  uint32

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
	// per-adapter work-completion callback.
	txQ      pool.Ring[txWork]
	txBusy   bool
	txDoneFn func()

	// Pooled FSM stage runners and their pre-resolved stage templates.
	chainTemplates
	chainFree []*chainRun

	// dbScratch is the doorbell FSM's vectored drain buffer (PopN).
	dbScratch [64]uint64

	// Per-stage occupancy, split by the four table columns, plus the
	// collective engine's stages.
	TxData, TxAck, RxData, RxAck, Coll *trace.Stages
	// Net counts fault-visible events (rx.corrupt, tx.retransmit,
	// conn.retry-exceeded, ...) for the chaos benches.
	Net   *trace.Counters
	stats Stats

	// The collective engine's recyclers (coll.go): collFree and collRxFree
	// hold ring messages and receive-stage runners; collLive counts
	// messages handed out here minus messages recycled here, so the sum
	// over a cluster's adapters is the number outstanding. The counter and
	// stage cells are resolved once so the per-message path skips the name
	// maps.
	collFree    []*collMsg
	collRxFree  []*collRx
	collLive    int
	collMsgs    *uint64
	collDupDrop *uint64
	collPostCtr *trace.Stage
	collStepCtr *trace.Stage
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
		tcpConns:   make(map[tcpKey]*qpState),
		listeners:  make(map[uint16]*verbs.Listener),
		udpPorts:   udp.NewPortSpace[*qpState](),
		tcpPorts:   make(map[uint16]bool),
		nextEphem:  49152,
		bootEpoch:  1,
		collGroups: make(map[uint16]*collGroup),
		TxData:     trace.NewStages(),
		TxAck:      trace.NewStages(),
		RxData:     trace.NewStages(),
		RxAck:      trace.NewStages(),
		Coll:       trace.NewStages(),
		Net:        trace.NewCounters(),
	}
	n.collMsgs = n.Net.Handle("coll.msgs")
	n.collDupDrop = n.Net.Handle("coll.dup-drop")
	n.collPostCtr = n.Coll.Counter("coll.post")
	n.collStepCtr = n.Coll.Counter("coll.step")
	n.initTemplates()
	n.txDoneFn = func() {
		n.txBusy = false
		n.kickTx()
	}
	n.ringTokFn = func() {
		tok, _ := n.dbTokens.Pop()
		n.db.Ring(tok)
	}
	n.att = fab.AttachOn(eng, n.receiveFrame)
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

// Stats returns adapter counters.
func (n *NIC) Stats() Stats { return n.stats }

// ConnStats is one connection's diagnostic record: its identity, the TCB
// counters, and the adapter-side error counters that do not live in the
// TCB (RNR stalls, epoch fencing).
type ConnStats struct {
	LocalPort  uint16
	RemoteAddr inet.Addr6
	RemotePort uint16
	TCP        tcp.Stats
	// RNR counts receiver-not-ready stalls (records parked in SRAM for
	// want of a posted receive WR).
	RNR uint64
	// StaleEpoch counts pre-crash straggler frames fenced off this
	// connection.
	StaleEpoch uint64
	// SRAMBytes is the connection's accounted adapter-SRAM footprint:
	// TCB + QP context, its state-table slot, and any stashed records.
	SRAMBytes int
}

// sortedConns returns the live connections in connection-key order so
// diffing two runs' diagnostics is meaningful.
func (n *NIC) sortedConns() []tcpKey {
	keys := make([]tcpKey, 0, len(n.tcpConns))
	for k := range n.tcpConns {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.localPort != b.localPort {
			return a.localPort < b.localPort
		}
		if c := bytes.Compare(a.remoteAddr[:], b.remoteAddr[:]); c != 0 {
			return c < 0
		}
		return a.remotePort < b.remotePort
	})
	return keys
}

// DebugConnStats exposes per-connection diagnostics with stable sorted
// emission (connection-key order).
func (n *NIC) DebugConnStats() []ConnStats {
	keys := n.sortedConns()
	out := make([]ConnStats, 0, len(keys))
	for _, k := range keys {
		qs := n.tcpConns[k]
		out = append(out, ConnStats{
			LocalPort:  k.localPort,
			RemoteAddr: k.remoteAddr,
			RemotePort: k.remotePort,
			TCP:        qs.conn.Stats(),
			RNR:        qs.rnr,
			StaleEpoch: qs.staleEpoch,
			SRAMBytes:  params.SRAMConnBytes + params.SRAMQPSlotBytes + qs.stashBytes,
		})
	}
	return out
}

// AddConnCounters folds the adapter's fault-visible counters plus the
// per-connection retry/RNR/fence tallies into dst under stable names, in
// sorted connection order, so summing a cluster of adapters into one
// recovery report is deterministic (trace.Counters.AddAll composes these
// across nodes).
func (n *NIC) AddConnCounters(dst *trace.Counters) {
	dst.AddAll(n.Net)
	for _, k := range n.sortedConns() {
		qs := n.tcpConns[k]
		st := qs.conn.Stats()
		dst.Add("conn.retransmits", st.Retransmits)
		dst.Add("conn.timeouts", st.Timeouts)
		dst.Add("conn.rnr", qs.rnr)
		dst.Add("conn.stale-epoch", qs.staleEpoch)
		dst.Add("conn.sram-bytes", uint64(params.SRAMConnBytes+params.SRAMQPSlotBytes+qs.stashBytes))
	}
}

// SRAMFootprint reports the adapter SRAM pinned by connection state right
// now: the state-table index, one TCB+QP context per live entry, and
// stashed records. This is the per-connection-memory quantity the
// connscale experiment sweeps; trace counters surface it per connection
// via AddConnCounters ("conn.sram-bytes").
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
	n.Coll.Reset()
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
		n.Net.Add("mgmt.qp-refused", 1)
		n.Net.Add("qp.exhausted", 1)
		return &verbs.QPExhaustedError{Current: n.qps.len(), Capacity: n.maxQPs()}
	}
	qs := &qpState{qp: qp}
	if srq := qp.SRQ(); srq != nil {
		qs.srqs = n.srqFor(srq)
	}
	qs.timerFn = func() { n.onQPTimer(qs) }
	qs.ringFn = func() { n.db.Ring(uint64(qp.QPN)) }
	qs.recvFn = func() {
		// The QP may have been destroyed while the PIO write was in
		// flight; the state entry is only live while it's still mapped.
		if n.qps.get(qp.QPN) != qs {
			return
		}
		n.drainStashAndUpdate(qs)
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
		n.reapConn(qs)
		acts := qs.conn.Abort(int64(n.eng.Now()))
		if len(acts.Segments) > 0 {
			// The RST needs routing state that outlives the reset; hand it
			// a transient endpoint record like sendRST does.
			tmp := &qpState{localPort: qs.localPort, remoteAddr: qs.remoteAddr,
				remotePort: qs.remotePort, remoteAtt: qs.remoteAtt}
			for _, seg := range acts.Segments {
				n.enqueueTx(txWork{qs: tmp, seg: seg})
			}
		}
		qs.conn = nil
	} else if qs.localPort != 0 {
		n.udpPorts.Unbind(qs.localPort)
	}
	if qs.timer != nil {
		qs.timer.Cancel()
		qs.timer = nil
	}
	ids := qs.clearSendState()
	for id, ok := ids.Pop(); ok; id, ok = ids.Pop() {
		qp.CompleteSend(id, verbs.StatusFlushed, 0)
	}
	qs.pendingWRs = 0
	qs.peerClosed = false
	qs.peerEpoch = 0
	qs.rnr, qs.staleEpoch = 0, 0
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
		n.syncTimer(qs)
	}
	if qs.localPort != 0 && qs.conn == nil {
		n.udpPorts.Unbind(qs.localPort)
	}
	qp.Flush()
	n.qps.del(qp.QPN)
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

// allocTCPPort grabs a free local TCP port.
func (n *NIC) allocTCPPort() uint16 {
	for {
		p := n.nextEphem
		n.nextEphem++
		if n.nextEphem == 0 {
			n.nextEphem = 49152
		}
		if !n.tcpPorts[p] {
			n.tcpPorts[p] = true
			return p
		}
	}
}

// connConfig builds the record-mode TCB configuration for a QP.
func (n *NIC) connConfig(local, remote uint16) tcp.Config {
	n.issCount += 64000
	return tcp.Config{
		LocalPort:  local,
		RemotePort: remote,
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
		ISS:           tcp.Seq(n.issCount),
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
	qs.localPort = n.allocTCPPort()
	qs.remoteAddr, qs.remotePort, qs.remoteAtt = raddr, rport, att
	qs.conn = tcp.NewConn(n.connConfig(qs.localPort, rport))
	qs.conn.ReuseActionBuffers(true)
	n.tcpConns[tcpKey{qs.localPort, raddr, rport}] = qs
	now := int64(n.eng.Now())
	acts, err := qs.conn.Connect(now)
	if err != nil {
		return err
	}
	n.handleActions(qs, acts, nil)
	n.syncTimer(qs)
	return nil
}

// Listen implements verbs.Device: "The server application instructs the
// interface to monitor a TCP port for incoming connections" (paper §3).
func (n *NIC) Listen(port uint16) (*verbs.Listener, error) {
	if n.down {
		return nil, verbs.ErrNICDown
	}
	if n.listeners[port] != nil || n.tcpPorts[port] {
		return nil, verbs.ErrPortBusy
	}
	n.mgmtCost()
	n.tcpPorts[port] = true
	l := verbs.NewListener(port, n)
	n.listeners[port] = l
	return l, nil
}

// SendDoorbell implements verbs.Device: the host's posting method rings
// the hardware doorbell; the write crosses the PCI bus into the FIFO.
func (n *NIC) SendDoorbell(qp *verbs.QP) {
	if qs := n.qps.get(qp.QPN); qs != nil {
		n.cfg.Bus.PIOWrite("doorbell", qs.ringFn)
		return
	}
	//lint:qpip-allow hotprop unknown-QPN fallback for rings that race QP teardown; live QPs take the pre-bound ringFn path above
	n.cfg.Bus.PIOWrite("doorbell", func() {
		n.db.Ring(uint64(qp.QPN))
	})
}

// RecvPosted implements verbs.Device: new receive buffer space arrived.
// The notification crosses the bus like a doorbell; the firmware grows
// the TCP receive window accordingly and drains any stashed records.
func (n *NIC) RecvPosted(qp *verbs.QP) {
	if qs := n.qps.get(qp.QPN); qs != nil {
		n.cfg.Bus.PIOWrite("recv-doorbell", qs.recvFn)
		return
	}
	n.cfg.Bus.PIOWrite("recv-doorbell", nil)
}

// dbToken encodes a vectored doorbell token: the QPN in the low 32 bits,
// the WR count in the high 32. A count of 0 means 1: the single-WR
// ringFn writes a bare QPN.
func dbToken(qpn uint32, count int) uint64 {
	return uint64(qpn) | uint64(uint32(count))<<32
}

// SendDoorbellN implements verbs.Device: one vectored doorbell announcing
// n posted send WRs — a single PIO write regardless of batch size.
func (n *NIC) SendDoorbellN(qp *verbs.QP, count int) {
	n.dbTokens.Push(dbToken(qp.QPN, count))
	n.cfg.Bus.PIOWrite("doorbell", n.ringTokFn)
}

// RecvPostedN implements verbs.Device: one notification write covering a
// batch of receive WRs. The window grows from PostedRecvBytes, which the
// host already updated for the whole batch, so a single write suffices.
func (n *NIC) RecvPostedN(qp *verbs.QP, count int) {
	n.RecvPosted(qp)
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
	n.syncTimer(qs)
	// An SRQ-attached connection that just advertised off an empty pool
	// parks on the pool: only a repost can reopen its window, and the
	// peer's probes would otherwise see zero forever.
	if posted == 0 {
		n.enqueueSRQWaiter(qs)
	}
}

// reapConn unlinks a dead TCB from the demux and port tables. Every
// connection-death path (graceful close, RST, retry exhaustion, host
// reset) funnels through here so churn cannot grow either table: before
// this, tcpConns and the ephemeral reservation in tcpPorts leaked on
// graceful close, and 16k churned connections exhausted the port space.
// A listener's port reservation is owned by the listener, not by the
// accepted children that share it, so it stays.
func (n *NIC) reapConn(qs *qpState) {
	delete(n.tcpConns, tcpKey{qs.localPort, qs.remoteAddr, qs.remotePort})
	if n.listeners[qs.localPort] == nil {
		delete(n.tcpPorts, qs.localPort)
	}
}

// LiveTCPConns reports the number of TCBs resident in the adapter's demux
// table — the churn benches assert it returns to baseline.
func (n *NIC) LiveTCPConns() int { return len(n.tcpConns) }

// mgmtCost charges the management FSM for one privileged command.
func (n *NIC) mgmtCost() {
	n.cpu.Do(params.US(5), "mgmt", nil)
}

// notifyHost schedules a host-visible event (connection established,
// errors) through the lightweight interrupt path.
func (n *NIC) notifyHost(fn func()) {
	//lint:qpip-allow hotprop host notifications are connection-lifecycle events (establish, reset, flush), not per-packet datapath work
	n.cfg.Bus.DMA(32, "event", func() {
		n.cfg.HostCPU.Do(params.US(params.HostIRQUS), "qpip.isr", fn)
	})
}

// failQP tears down a QP after a terminal connection failure: the TCB is
// unlinked, the timer cancelled, and — asynchronously, through the host
// notification path — every outstanding WR completes exactly once with
// status. That includes send WRs the firmware already consumed
// (qs.sendIDs, in flight or queued in the TCB) which a plain Flush would
// leak, violating the DESIGN §8 completion invariant.
func (n *NIC) failQP(qs *qpState, err error, status verbs.Status) {
	if qs.conn != nil {
		n.reapConn(qs)
	}
	if qs.timer != nil {
		qs.timer.Cancel()
		qs.timer = nil
	}
	ids := qs.clearSendState()
	//lint:qpip-allow hotprop terminal failure teardown runs once per connection death, never on the steady-state path
	n.notifyHost(func() {
		for id, ok := ids.Pop(); ok; id, ok = ids.Pop() {
			qs.qp.CompleteSend(id, status, 0)
		}
		qs.qp.SetFailed(err, status)
	})
}

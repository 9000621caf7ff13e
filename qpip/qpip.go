// Package qpip is the public API of the QPIP reproduction: Queue Pair IP,
// a hybrid SAN architecture combining the Infiniband-style queue pair
// abstraction with the standard inter-network protocol suite (TCP, UDP,
// IPv6) offloaded onto an intelligent network adapter, after Buonadonna &
// Culler, "Queue Pair IP: A Hybrid Architecture for System Area Networks"
// (ISCA 2002).
//
// The package exposes three layers:
//
//   - Cluster construction: simulated testbeds of nodes carrying QPIP
//     adapters (Myrinet fabric), conventional GigE adapters, and/or
//     Myrinet-as-IP adapters, mirroring the paper's PowerEdge testbed.
//   - The verbs interface: QPs, CQs, work requests and completions —
//     PostSend, PostRecv, Poll, Wait and their batch forms PostSendN,
//     PostRecvN, PollN (one CPU charge and one vectored doorbell per
//     batch), plus TCP-rendezvous connection management handled entirely
//     by the adapter.
//   - Blocking sockets on the host-based baseline stacks, for
//     side-by-side comparison.
//
// A minimal reliable round trip:
//
//	c := qpip.NewQPIPCluster(2)
//	c.Spawn("server", func(p *qpip.Proc) {
//		qp, scq, rcq, _ := qpip.NewReliableQP(c.Node(1), 64)
//		lst, _ := c.Node(1).QPIP.Listen(7000)
//		lst.Post(qp)
//		qp.WaitEstablished(p)
//		qp.PostRecv(p, qpip.RecvWR{ID: 1, Capacity: 4096})
//		comp := rcq.Wait(p)
//		_ = comp.Payload // the message
//		_ = scq
//	})
//	c.Spawn("client", func(p *qpip.Proc) {
//		qp, scq, _, _ := qpip.NewReliableQP(c.Node(0), 64)
//		qp.Connect(p, c.Node(1).Addr6, 7000)
//		qp.PostSend(p, qpip.SendWR{ID: 1, Payload: qpip.Message([]byte("hi"))})
//		scq.Wait(p)
//	})
//	c.Run()
package qpip

import (
	"repro/internal/buf"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/inet"
	"repro/internal/qpipnic"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/verbs"
)

// Re-exported simulation types.
type (
	// Proc is a simulated application process.
	Proc = sim.Proc
	// Time is simulated time in nanoseconds.
	Time = sim.Time
)

// Re-exported verbs types: the queue pair interface of paper §3.
type (
	// QP is a queue pair.
	QP = verbs.QP
	// CQ is a completion queue.
	CQ = verbs.CQ
	// SendWR is a send work request.
	SendWR = verbs.SendWR
	// RecvWR is a receive work request.
	RecvWR = verbs.RecvWR
	// Completion is a CQ entry.
	Completion = verbs.Completion
	// Listener is a monitored TCP port that mates incoming connections
	// to idle QPs.
	Listener = verbs.Listener
	// QPConfig sizes a queue pair.
	QPConfig = verbs.QPConfig
	// SRQ is a shared receive queue: one host-resident pool of receive
	// WRs feeding many QPs (QPConfig.SRQ), claimed in FIFO order at
	// delivery time (DESIGN §16).
	SRQ = verbs.SRQ
	// SRQConfig sizes a shared receive queue.
	SRQConfig = verbs.SRQConfig
	// QPExhaustedError is the typed error returned when the adapter's QP
	// state table is full; it carries the table capacity.
	QPExhaustedError = verbs.QPExhaustedError
)

// Re-exported cluster types.
type (
	// Cluster is a simulated testbed.
	Cluster = core.Cluster
	// Node is one simulated server.
	Node = core.Node
	// NodeConfig selects a node's adapters.
	NodeConfig = core.NodeConfig
	// Addr6 is an IPv6 address (QPIP addressing).
	Addr6 = inet.Addr6
	// Addr4 is an IPv4 address (host-stack addressing).
	Addr4 = inet.Addr4
	// Payload is a message payload, real or virtual.
	Payload = buf.Buf
)

// Transport types.
const (
	// Reliable QPs run over offloaded TCP.
	Reliable = verbs.Reliable
	// Unreliable QPs run over offloaded UDP.
	Unreliable = verbs.Unreliable
)

// Switched multi-hop topologies (NodeConfig.Topology, DESIGN §15): the
// Myrinet fabric routes frames through a switch graph with per-egress
// cut-through arbitration instead of the single-crossbar star.
type (
	// TopoSpec selects and sizes a switch topology.
	TopoSpec = topo.Spec
	// TopoKind is a topology family.
	TopoKind = topo.Kind
)

// Topology families. The zero value (TopoNone) keeps the legacy
// single-crossbar star fast path.
const (
	TopoNone    = topo.None
	TopoStar    = topo.Star
	TopoRing    = topo.Ring
	TopoMesh    = topo.Mesh
	TopoFatTree = topo.FatTree
)

// ParseTopoKind parses a topology family name ("star", "ring", "mesh",
// "fattree").
func ParseTopoKind(s string) (TopoKind, error) { return topo.ParseKind(s) }

// NIC-offloaded collectives (DESIGN §15): barrier, broadcast and ring
// reductions executed entirely by the adapters after one initiating post.
type (
	// CollQ is the host handle on one rank's collective-group membership.
	CollQ = verbs.CollQ
	// CollWR is a collective work request.
	CollWR = verbs.CollWR
)

// Collective completion opcodes (Completion.Op).
const (
	OpSend          = verbs.OpSend
	OpRecv          = verbs.OpRecv
	OpBarrier       = verbs.OpBarrier
	OpBcast         = verbs.OpBcast
	OpAllreduce     = verbs.OpAllreduce
	OpReduceScatter = verbs.OpReduceScatter
)

// NewCollQ joins node's QPIP adapter to collective group `group` as rank
// `rank` of len(members); completions land on cq.
func NewCollQ(node *Node, group uint16, rank int, members []Addr6, cq *CQ) (*CollQ, error) {
	return verbs.NewCollQ(node.QPIP, group, rank, members, cq)
}

// MarshalVec / UnmarshalVec convert between result vectors and completion
// payloads (8 bytes per word).
func MarshalVec(vec []uint64) Payload { return verbs.MarshalVec(vec) }
func UnmarshalVec(b Payload) []uint64 { return verbs.UnmarshalVec(b) }

// QP lifecycle states (QP.State), following the Infiniband modify-QP
// model: RESET→INIT→RTR→RTS with SQD and ERR excursions, driven by
// QP.ModifyQP for the host-owned edges (the rendezvous edges belong to
// the adapter). QPConnecting/QPEstablished are the pre-state-machine
// aliases for RTR/RTS.
const (
	QPReset       = verbs.QPReset
	QPInit        = verbs.QPInit
	QPRTR         = verbs.QPRTR
	QPRTS         = verbs.QPRTS
	QPSQD         = verbs.QPSQD
	QPConnecting  = verbs.QPConnecting
	QPEstablished = verbs.QPEstablished
	QPError       = verbs.QPError
	QPClosed      = verbs.QPClosed
)

// QPState is the queue pair lifecycle state.
type QPState = verbs.QPState

// BackoffPolicy is the deterministic exponential-backoff schedule used by
// QP.Reconnect — jitter comes from the seed and attempt ordinal, never
// the wall clock, so reconnect instants replay identically.
type BackoffPolicy = verbs.BackoffPolicy

// Completion statuses.
const (
	StatusSuccess = verbs.StatusSuccess
	StatusFlushed = verbs.StatusFlushed
	// StatusRetryExceeded: the adapter's TCP retry budget ran out — the
	// peer is unreachable and the QP moved to the error state.
	StatusRetryExceeded = verbs.StatusRetryExceeded
	// StatusCQOverflow is the synthetic completion surfacing a CQ sized
	// too small for its completion rate.
	StatusCQOverflow = verbs.StatusCQOverflow
	// StatusRemoteDown: QP.Reconnect exhausted its bounded attempt
	// budget; the remote endpoint is declared down.
	StatusRemoteDown = verbs.StatusRemoteDown
)

// Terminal connection errors surfaced through QP.Err.
var (
	// ErrRetryExceeded: retransmission gave up; the peer is unreachable.
	ErrRetryExceeded = verbs.ErrRetryExceeded
	// ErrNoResources: the adapter's QP/TCB state table is exhausted.
	ErrNoResources = verbs.ErrNoResources
	// ErrConnRefused: the peer answered the connection attempt with a
	// reset (no listener on the port).
	ErrConnRefused = verbs.ErrConnRefused
	// ErrRemoteDown: QP.Reconnect exhausted its attempt budget.
	ErrRemoteDown = verbs.ErrRemoteDown
	// ErrNICDown: the local adapter is down (crashed, mid-reboot).
	ErrNICDown = verbs.ErrNICDown
	// ErrSQDraining: PostSend refused while the QP drains in SQD.
	ErrSQDraining = verbs.ErrSQDraining
	// ErrPeerRestarted: the connection was fenced because the remote
	// adapter rebooted (a frame carried a newer boot epoch).
	ErrPeerRestarted = verbs.ErrPeerRestarted
	// ErrQPExhausted: the adapter's QP state table is full (typed as
	// QPExhaustedError; matches with errors.Is/As).
	ErrQPExhausted = verbs.ErrQPExhausted
	// ErrSRQAttached: the operation is invalid on an SRQ-attached QP
	// (per-QP PostRecv moves to the SRQ).
	ErrSRQAttached = verbs.ErrSRQAttached
)

// NewSRQ creates a shared receive queue on node's QPIP adapter. Attach it
// to QPs at creation time via QPConfig.SRQ.
func NewSRQ(node *Node, cfg SRQConfig) (*SRQ, error) { return verbs.NewSRQ(node.QPIP, cfg) }

// Fault injection (chaos testing): a seeded deterministic plan of drops,
// corruption, duplication, delay and link flaps applied to the fabric.
type (
	// FaultPlan describes the faults to inject.
	FaultPlan = fault.Plan
	// FaultInjector applies a FaultPlan; it records stats and a
	// reproducible event trace.
	FaultInjector = fault.Injector
	// Flap is one scheduled link-down window.
	Flap = fault.Flap
	// Crash is one scheduled adapter crash/restart: the NIC's TCBs,
	// doorbells and firmware state are wiped; surviving peers observe a
	// new boot epoch.
	Crash = fault.Crash
	// Partition is one scheduled one-directional connectivity outage
	// (src→dst frames dropped; the reverse path stays up).
	Partition = fault.Partition
)

// FlapTrain schedules n consecutive down windows on the fabric port,
// starting at start, each down for downDur then up for upDur.
func FlapTrain(port int, start Time, downDur, upDur Time, n int) []Flap {
	return fault.FlapTrain(port, start, downDur, upDur, n)
}

// InjectFaults attaches a seeded fault plan to the cluster's primary
// fabric (Myrinet when present, Ethernet otherwise) and returns the
// injector for stats and trace inspection. Crash entries in the plan are
// scheduled against the nodes' QPIP adapters, indexed by Crash.Node.
func InjectFaults(c *Cluster, plan FaultPlan) *FaultInjector {
	in := fault.NewInjector(plan)
	if c.Myrinet != nil {
		in.Attach(c.Myrinet)
	} else if c.Eth != nil {
		in.Attach(c.Eth)
	}
	if len(plan.Crashes) > 0 {
		targets := make([]fault.Rebootable, len(c.Nodes))
		engs := make([]*sim.Engine, len(c.Nodes))
		for i, n := range c.Nodes {
			targets[i] = n.QPIP
			engs[i] = c.EngineOf(i)
		}
		in.ScheduleCrashesOn(engs, targets...)
	}
	return in
}

// Checksum placement modes for the adapter's receive path.
const (
	ChecksumEmulatedHW = qpipnic.ChecksumEmulatedHW
	ChecksumFirmware   = qpipnic.ChecksumFirmware
)

// NewCluster builds n nodes with the given adapter configuration.
func NewCluster(n int, cfg NodeConfig) *Cluster { return core.NewCluster(n, cfg) }

// NewQPIPCluster builds n nodes carrying QPIP adapters at the native
// 16 KB MTU on a Myrinet fabric — the paper's primary configuration.
func NewQPIPCluster(n int) *Cluster {
	return core.NewCluster(n, core.NodeConfig{QPIP: true})
}

// ShardPlan partitions a cluster across parallel shard engines
// (conservative parallel simulation, DESIGN §14). Runs are bit-identical
// to the sequential engine for any shard count.
type ShardPlan = core.ShardPlan

// NewShardedCluster builds n nodes partitioned across plan.Shards engines;
// Run drives them with the conservative parallel runner. Spawn workload
// processes with Cluster.SpawnOn so each runs on its node's shard.
func NewShardedCluster(n int, cfg NodeConfig, plan ShardPlan) *Cluster {
	return core.NewShardedCluster(n, cfg, plan)
}

// NewShardedQPIPCluster is NewQPIPCluster across shards engines, nodes
// assigned round-robin (node i on shard i%shards).
func NewShardedQPIPCluster(n, shards int) *Cluster {
	return core.NewShardedCluster(n, core.NodeConfig{QPIP: true}, core.ShardPlan{Shards: shards})
}

// NewReliableQP creates a reliable (TCP) QP on node with fresh send and
// receive CQs of the given depth.
func NewReliableQP(node *Node, depth int) (*QP, *CQ, *CQ, error) {
	scq := verbs.NewCQ(node.QPIP, depth*2)
	rcq := verbs.NewCQ(node.QPIP, depth*2)
	qp, err := verbs.NewQP(node.QPIP, verbs.QPConfig{
		Transport: verbs.Reliable, SendCQ: scq, RecvCQ: rcq,
		SendDepth: depth, RecvDepth: depth,
	})
	return qp, scq, rcq, err
}

// NewCQ creates a standalone completion queue on node's QPIP adapter, for
// applications that share one CQ across several QPs.
func NewCQ(node *Node, depth int) *CQ { return verbs.NewCQ(node.QPIP, depth) }

// NewQPWith creates a QP on node's QPIP adapter with explicit CQs and
// depths (the general form of NewReliableQP/NewUnreliableQP).
func NewQPWith(node *Node, cfg QPConfig) (*QP, error) { return verbs.NewQP(node.QPIP, cfg) }

// NewUnreliableQP creates an unreliable (UDP) QP on node.
func NewUnreliableQP(node *Node, depth int) (*QP, *CQ, *CQ, error) {
	scq := verbs.NewCQ(node.QPIP, depth*2)
	rcq := verbs.NewCQ(node.QPIP, depth*2)
	qp, err := verbs.NewQP(node.QPIP, verbs.QPConfig{
		Transport: verbs.Unreliable, SendCQ: scq, RecvCQ: rcq,
		SendDepth: depth, RecvDepth: depth,
	})
	return qp, scq, rcq, err
}

// Message wraps real bytes as a payload.
func Message(data []byte) Payload { return buf.Bytes(data) }

// VirtualMessage is a content-free payload of n bytes for bulk benchmarks
// (checksums still compute correctly; zero content is implied).
func VirtualMessage(n int) Payload { return buf.Virtual(n) }

// NodeAddr6 returns the deterministic IPv6 address of the i-th node.
func NodeAddr6(i int) Addr6 { return inet.NodeAddr6(i) }

// NodeAddr4 returns the deterministic IPv4 address of the i-th node.
func NodeAddr4(i int) Addr4 { return inet.NodeAddr4(i) }

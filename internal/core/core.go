// Package core composes the simulated testbed: nodes (host CPU, PCI bus,
// kernel, adapters) wired onto Myrinet and Gigabit Ethernet fabrics —
// the paper's pair of Dell PowerEdge 6350 servers with a LANai 9 Myrinet
// adapter and an Intel Pro1000 on each (§4.2).
package core

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/gige"
	"repro/internal/gm"
	"repro/internal/hostos"
	"repro/internal/hw"
	"repro/internal/inet"
	"repro/internal/params"
	"repro/internal/qpipnic"
	"repro/internal/sim"
	"repro/internal/sim/par"
	"repro/internal/topo"
)

// NodeConfig selects the adapters a node carries.
type NodeConfig struct {
	// QPIP attaches a QPIP adapter (implies the Myrinet fabric).
	QPIP bool
	// Topology selects the Myrinet fabric's switch graph (internal/topo).
	// The zero value keeps the legacy single-star fast path; topo.Star
	// models the same star through the explicit multi-hop machinery.
	Topology topo.Spec
	// QPIPMTU is the QPIP native MTU (default 16 KB, paper §4.2.1).
	QPIPMTU int
	// QPIPChecksum selects receive checksum placement.
	QPIPChecksum qpipnic.ChecksumMode
	// QPIPPipelinedTX / QPIPNoDelAck are ablation knobs.
	QPIPPipelinedTX bool
	QPIPNoDelAck    bool
	// QPIPMaxQPs bounds the adapter's SRAM-resident QP/TCB table
	// (default params.QPIPMaxQPs); CreateQP beyond it is refused.
	QPIPMaxQPs int
	// QPIPCQCoalescePkts / QPIPCQCoalesceDelay pace the per-CQ completion
	// event lines (unified hw.IRQLine model). Zero = immediate wakes,
	// timing-identical to the pre-coalescing path.
	QPIPCQCoalescePkts  int
	QPIPCQCoalesceDelay sim.Time
	// GigE attaches a Pro1000-class adapter running the host stack.
	GigE bool
	// GigEMTU is the Ethernet MTU (1500 default; 9000 jumbo).
	GigEMTU int
	// GM attaches a Myrinet adapter as an IP device (the IP/Myrinet
	// baseline, 9000 B MTU default).
	GM bool
	// GMMTU overrides the GM IP MTU.
	GMMTU int
}

// Node is one simulated server.
type Node struct {
	Index int
	CPU   *sim.CPU
	Bus   *hw.PCIBus
	// Kernel is the host OS (present whenever GigE or GM is attached, or
	// when the node runs socket applications).
	Kernel *hostos.Kernel
	// QPIP is the offloaded adapter, nil if not configured.
	QPIP *qpipnic.NIC
	// GigEDev / GMDev are the conventional adapters, nil if absent.
	GigEDev *gige.Device
	GMDev   *gm.Device

	Addr4 inet.Addr4
	Addr6 inet.Addr6
}

// ShardPlan partitions a cluster's nodes across shard engines for the
// conservative parallel runner (internal/sim/par). The zero value (or a
// Shards of 0/1 via NewCluster) is the plain sequential cluster.
type ShardPlan struct {
	// Shards is the number of shard engines. Run drives them in lockstep
	// epochs, every shard of every epoch in turn on the calling goroutine.
	Shards int
	// NodeShard maps a node index to its shard. Nil means round-robin
	// (node i on shard i%Shards).
	NodeShard func(node int) int
}

// Cluster is a set of nodes on shared fabrics.
type Cluster struct {
	// Engines holds one engine per shard; len 1 when unsharded. Work is
	// placed per node: SpawnOn for processes, EngineOf for node-owned
	// objects such as disks.
	Engines []*sim.Engine
	Myrinet *fabric.Fabric
	Eth     *fabric.Fabric
	Routes6 *inet.Table6
	Nodes   []*Node

	shardOf []int      // node index -> shard
	sharded bool       // built by NewShardedCluster: Run uses the parallel runner
	runner  par.Config // the parallel runner's hooks, bound once
	epochs  uint64     // parallel-runner epochs run so far
}

// NewCluster builds n identically configured nodes on one engine.
func NewCluster(n int, cfg NodeConfig) *Cluster {
	return newCluster(n, cfg, ShardPlan{Shards: 1}, false)
}

// NewShardedCluster builds n identically configured nodes partitioned
// across plan.Shards engines, and Run drives them with the conservative
// parallel runner. A plan of 1 shard runs the identical event schedule as
// NewCluster through the runner's epochs and barriers — the equivalence
// tests' middle rung.
func NewShardedCluster(n int, cfg NodeConfig, plan ShardPlan) *Cluster {
	if plan.Shards < 1 {
		plan.Shards = 1
	}
	return newCluster(n, cfg, plan, true)
}

func newCluster(n int, cfg NodeConfig, plan ShardPlan, sharded bool) *Cluster {
	engines := make([]*sim.Engine, plan.Shards)
	for i := range engines {
		engines[i] = sim.NewEngine()
	}
	c := &Cluster{
		Engines: engines,
		Routes6: inet.NewTable6(),
		sharded: sharded,
		shardOf: make([]int, n),
	}
	c.runner = par.Config{Engines: engines, Exchange: c.exchange, MailFloor: c.mailFloor}
	for i := 0; i < n; i++ {
		s := i % plan.Shards
		if plan.NodeShard != nil {
			s = plan.NodeShard(i)
		}
		if s < 0 || s >= plan.Shards {
			panic(fmt.Sprintf("core: node %d mapped to shard %d of %d", i, s, plan.Shards))
		}
		c.shardOf[i] = s
	}
	eng := engines[0]
	needMyri := cfg.QPIP || cfg.GM
	if needMyri {
		var g *topo.Graph
		if cfg.Topology.Kind != topo.None {
			g = topo.Build(cfg.Topology, n)
		}
		c.Myrinet = fabric.New(eng, fabric.Config{
			Name:         "myri",
			Bandwidth:    params.MyrinetBandwidth,
			LinkOverhead: params.MyrinetHeaderBytes,
			CutThrough:   true,
			HopLatency:   params.MyrinetHopLatency,
			PropDelay:    params.CableLatency,
			Topo:         g,
		})
	}
	if cfg.GigE {
		mtu := cfg.GigEMTU
		if mtu <= 0 {
			mtu = params.MTUEthernet
		}
		c.Eth = fabric.New(eng, fabric.Config{
			Name:         "eth",
			Bandwidth:    params.GigEBandwidth,
			MTU:          mtu,
			LinkOverhead: params.EthernetOverhead,
			HopLatency:   params.GigESwitchLatency,
			PropDelay:    params.CableLatency,
		})
	}
	for i := 0; i < n; i++ {
		c.Nodes = append(c.Nodes, c.addNode(i, cfg))
	}
	// Static routing tables: every node knows every other (the paper's
	// static address resolution, §4.1).
	for _, a := range c.Nodes {
		for _, b := range c.Nodes {
			if a == b {
				continue
			}
			if a.Kernel != nil {
				switch {
				case a.GigEDev != nil && b.GigEDev != nil:
					a.Kernel.AddRoute(b.Addr4, a.GigEDev, b.GigEDev.Attachment())
				case a.GMDev != nil && b.GMDev != nil:
					a.Kernel.AddRoute(b.Addr4, a.GMDev, b.GMDev.Attachment())
				}
			}
		}
	}
	return c
}

func (c *Cluster) addNode(i int, cfg NodeConfig) *Node {
	eng := c.EngineOf(i)
	name := fmt.Sprintf("node%d", i)
	node := &Node{
		Index: i,
		CPU:   sim.NewCPU(eng, name+".cpu0", params.HostClockHz),
		Bus:   hw.NewPCIBus(eng, name+".pci", params.PCIBandwidth, params.PCIDMASetup, params.PCIWriteLatency),
		Addr4: inet.NodeAddr4(i),
		Addr6: inet.NodeAddr6(i),
	}
	if cfg.GigE || cfg.GM {
		node.Kernel = hostos.NewKernel(eng, name, node.Addr4, node.CPU, node.Bus)
	}
	if cfg.QPIP {
		node.QPIP = qpipnic.New(eng, c.Myrinet, qpipnic.Config{
			Name:        name + ".qpip",
			Addr:        node.Addr6,
			MTU:         cfg.QPIPMTU,
			Checksum:    cfg.QPIPChecksum,
			PipelinedTX: cfg.QPIPPipelinedTX,
			NoDelAck:    cfg.QPIPNoDelAck,
			HostCPU:     node.CPU,
			Bus:         node.Bus,
			Routes:      c.Routes6,
			MaxQPs:      cfg.QPIPMaxQPs,

			CQCoalescePkts:  cfg.QPIPCQCoalescePkts,
			CQCoalesceDelay: cfg.QPIPCQCoalesceDelay,
		})
		c.Routes6.Add(node.Addr6, node.QPIP.Attachment())
	}
	if cfg.GigE {
		node.GigEDev = gige.New(eng, node.Kernel, c.Eth, gige.Config{
			Name: name + ".eth0",
			MTU:  cfg.GigEMTU,
		})
	}
	if cfg.GM {
		node.GMDev = gm.New(eng, node.Kernel, c.Myrinet, gm.Config{
			Name: name + ".myri0",
			MTU:  cfg.GMMTU,
		})
	}
	return node
}

// EngineOf reports the shard engine node i lives on.
func (c *Cluster) EngineOf(node int) *sim.Engine {
	return c.Engines[c.shardOf[node]]
}

// Spawn is SpawnOn(0, …) for a one-engine cluster, kept for callers that
// predate per-node placement. It panics on a cluster with more than one
// engine, where naming no node would name the wrong shard.
func (c *Cluster) Spawn(name string, fn func(*sim.Proc)) *sim.Proc {
	if len(c.Engines) > 1 {
		panic("core: Cluster.Spawn on a sharded cluster; place the process with SpawnOn(node, …)")
	}
	return c.SpawnOn(0, name, fn)
}

// SpawnOn starts an application process on node's shard engine. Processes
// must run where their node's adapters do: verbs calls schedule events on
// the current engine, and CQ wakes arrive from the node's NIC.
func (c *Cluster) SpawnOn(node int, name string, fn func(*sim.Proc)) *sim.Proc {
	return c.EngineOf(node).Spawn(name, fn)
}

// InjectFaults attaches a seeded fault plan to the cluster's primary
// fabric (Myrinet when present, Ethernet otherwise) and schedules the
// plan's crashes against the nodes' QPIP adapters, Crash.Node indexing
// c.Nodes; each crash and restart runs on its node's engine. It returns
// the injector for stats and trace inspection.
func (c *Cluster) InjectFaults(plan fault.Plan) *fault.Injector {
	in := fault.NewInjector(plan)
	if c.Myrinet != nil {
		in.Attach(c.Myrinet)
	} else if c.Eth != nil {
		in.Attach(c.Eth)
	}
	targets := make([]fault.Rebootable, len(c.Nodes))
	engs := make([]*sim.Engine, len(c.Nodes))
	for i, n := range c.Nodes {
		targets[i], engs[i] = n.QPIP, c.EngineOf(i)
	}
	in.ScheduleCrashesOn(engs, targets...)
	return in
}

// exchange drains every fabric's cross-shard mailboxes at an epoch
// barrier, in fixed fabric order; each fabric drains its outboxes in a
// fixed order.
//
//qpip:barrier
func (c *Cluster) exchange() int {
	n := 0
	for _, f := range []*fabric.Fabric{c.Myrinet, c.Eth} {
		if f != nil {
			n += f.DrainMailboxes()
		}
	}
	return n
}

// mailFloor is the parallel runner's MailFloor hook: the earliest arrival
// of any cross-shard handoff the coming epoch can post, over the
// cluster's fabrics, given each engine's next event time. Each fabric
// publishes its outboxes' shares for its own guard. It reports false when
// no fabric can post: the shards then run free.
//
//qpip:barrier
func (c *Cluster) mailFloor(next []sim.Time) (sim.Time, bool) {
	floor, ok := sim.Time(0), false
	for _, f := range []*fabric.Fabric{c.Myrinet, c.Eth} {
		if f == nil {
			continue
		}
		if t, live := f.MailFloor(c.Engines, next); live && (!ok || t < floor) {
			floor, ok = t, true
		}
	}
	return floor, ok
}

// Run drives the simulation until quiescent: directly on the engine for a
// sequential cluster, via the conservative parallel runner (mail-floor
// epochs, barrier frame exchange) for a sharded one.
func (c *Cluster) Run() {
	if !c.sharded {
		c.Engines[0].Run()
		return
	}
	c.epochs += uint64(par.Run(c.runner))
}

// RunFor drives the simulation for d of simulated time.
func (c *Cluster) RunFor(d sim.Time) {
	if !c.sharded {
		c.Engines[0].RunFor(d)
		return
	}
	var now sim.Time
	for _, e := range c.Engines {
		if e.Now() > now {
			now = e.Now()
		}
	}
	c.epochs += uint64(par.RunUntil(c.runner, now+d))
}

// Epochs reports how many parallel-runner epochs the cluster has run, each
// one barrier; 0 for a sequential cluster. FiredTotal over Epochs is the
// work an epoch carries.
func (c *Cluster) Epochs() uint64 { return c.epochs }

// EndTime reports when the simulation last did work: the maximum
// LastEventAt over shard engines. For a drained sequential cluster this
// equals the engine's Now(); for a sharded run it is the mode-independent end
// timestamp (shard clocks are forced past the last event by the epoch
// horizon, so Now is not comparable).
func (c *Cluster) EndTime() sim.Time {
	var end sim.Time
	for _, e := range c.Engines {
		if t := e.LastEventAt(); t > end {
			end = t
		}
	}
	return end
}

// FiredTotal reports the number of events executed across all shards —
// invariant across sequential, 1-shard, and N-shard runs of the same
// workload (a cross-shard handoff replaces one locally scheduled delivery
// with one injected delivery).
func (c *Cluster) FiredTotal() uint64 {
	var total uint64
	for _, e := range c.Engines {
		total += e.Fired()
	}
	return total
}

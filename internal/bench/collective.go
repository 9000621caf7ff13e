package bench

import (
	"fmt"
	"strings"

	"repro/internal/buf"
	"repro/internal/core"
	"repro/internal/inet"
	"repro/internal/params"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/verbs"
)

// This file is the PR-8 collectives experiment: the same collective
// operations (barrier, ring allreduce) executed two ways on the same
// switched topology —
//
//   - host-based: a reference implementation over plain reliable QPs,
//     where every tree/ring step is a host-posted send and a host-side
//     CQ wait (one wakeup interrupt per step per rank);
//   - NIC-offloaded: the adapters' collective engine (qpipnic/coll.go),
//     where the host posts one WR and the whole schedule runs in
//     firmware.
//
// The contrast extends the paper's offload argument from point-to-point
// transport to multi-party patterns: the host-based path pays
// per-step verbs posts, ISR entries and wakeups on every rank, while the
// offloaded path pays one post and one completion interrupt regardless
// of group size. Latency is simulated time per operation measured at
// rank 0 in steady state; host CPU is the summed busy-time delta across
// every rank's host processor per operation.

// CollRow is one (topology, size, op, mode) measurement.
type CollRow struct {
	Topology string
	Nodes    int
	Op       string // barrier | allreduce
	Mode     string // host | nic
	// LatencyUS is simulated latency per collective, steady state.
	LatencyUS float64
	// HostCPUUS is host CPU consumed per collective, summed over all
	// ranks' host processors.
	HostCPUUS float64
}

// CollReport is the whole collectives comparison.
type CollReport struct {
	Iters    int
	VecWords int
	Rows     []CollRow
}

// collSpec maps a topology name to its auto-sized Spec.
func collSpec(name string) topo.Spec {
	k, err := topo.ParseKind(name)
	if err != nil {
		panic(err)
	}
	return topo.Spec{Kind: k}
}

// collCluster builds an n-node QPIP cluster on the named topology.
func collCluster(topoName string, n int) *core.Cluster {
	return core.NewCluster(n, core.NodeConfig{QPIP: true, Topology: collSpec(topoName)})
}

// ---- NIC-offloaded runner. ----

// collNICRun measures the offloaded collective: every rank joins one
// group, runs a warmup operation, then iters timed operations.
func collNICRun(topoName string, n, iters, vecWords int, op string) (latUS, cpuUS float64) {
	c := collCluster(topoName, n)
	addrs := make([]inet.Addr6, n)
	for i := range addrs {
		addrs[i] = c.Nodes[i].Addr6
	}
	var start, end sim.Time
	busy := make([]sim.Time, n)
	for i := 0; i < n; i++ {
		i := i
		c.SpawnOn(i, fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
			cq := verbs.NewCQ(c.Nodes[i].QPIP, 64)
			q, err := verbs.NewCollQ(c.Nodes[i].QPIP, 1, i, addrs, cq)
			if err != nil {
				panic(err)
			}
			post := func(id uint64) {
				var perr error
				if op == "barrier" {
					perr = q.PostBarrier(p, id)
				} else {
					vec := make([]uint64, vecWords)
					for j := range vec {
						vec[j] = uint64(i + j)
					}
					perr = q.PostAllreduce(p, id, vec)
				}
				if perr != nil {
					panic(perr)
				}
			}
			post(0) // warmup (and group-wide start synchronization)
			cq.Wait(p)
			b0 := c.Nodes[i].CPU.BusyTotal()
			if i == 0 {
				start = p.Now()
			}
			for k := 1; k <= iters; k++ {
				post(uint64(k))
				cq.Wait(p)
			}
			if i == 0 {
				end = p.Now()
			}
			busy[i] = c.Nodes[i].CPU.BusyTotal() - b0
		})
	}
	c.Run()
	var busyTotal sim.Time
	for _, b := range busy {
		busyTotal += b
	}
	return (end - start).Micros() / float64(iters), busyTotal.Micros() / float64(iters)
}

// ---- host-based reference runner. ----

// collHostRun measures the reference implementation over plain reliable
// QPs on the same fabric: a gather/release tree for barrier, the
// identical ring schedule for allreduce, every step host-driven.
func collHostRun(topoName string, n, iters, vecWords int, op string) (latUS, cpuUS float64) {
	c := collCluster(topoName, n)
	var start, end sim.Time
	busy := make([]sim.Time, n)
	total := iters + 1 // one warmup operation
	for i := 0; i < n; i++ {
		i := i
		c.SpawnOn(i, fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
			var step func(p *sim.Proc)
			if op == "barrier" {
				step = collHostBarrierSetup(p, c, i, n, total)
			} else {
				step = collHostAllreduceSetup(p, c, i, n, total, vecWords)
			}
			step(p) // warmup
			b0 := c.Nodes[i].CPU.BusyTotal()
			if i == 0 {
				start = p.Now()
			}
			for k := 0; k < iters; k++ {
				step(p)
			}
			if i == 0 {
				end = p.Now()
			}
			busy[i] = c.Nodes[i].CPU.BusyTotal() - b0
		})
	}
	c.Run()
	var busyTotal sim.Time
	for _, b := range busy {
		busyTotal += b
	}
	return (end - start).Micros() / float64(iters), busyTotal.Micros() / float64(iters)
}

// collHostBarrierSetup wires rank i into the same binomial tree the
// firmware uses (parent (i-1)/2, children 2i+1/2i+2) over reliable QPs
// — the child connects to its parent's listener on port 7100+child —
// and returns the per-iteration step: gather child ARRIVEs, send own
// ARRIVE up, await RELEASE, flood RELEASE down. Every message is a
// host-posted 1-byte send plus a host-side CQ wait.
func collHostBarrierSetup(p *sim.Proc, c *core.Cluster, i, n, total int) func(*sim.Proc) {
	type edge struct {
		qp  *verbs.QP
		rcq *verbs.CQ
	}
	var children []edge
	var parent *edge
	depth := 2 * (total + 1)
	// Post every child listener before any blocking call, so no SYN can
	// arrive at an unbound port while this rank waits on another edge.
	for _, ch := range []int{2*i + 1, 2*i + 2} {
		if ch >= n {
			continue
		}
		qp, _, rcq, err := newRC(c.Nodes[i], depth)
		if err != nil {
			panic(err)
		}
		lst, err := c.Nodes[i].QPIP.Listen(uint16(7100 + ch))
		if err != nil {
			panic(err)
		}
		lst.Post(qp)
		children = append(children, edge{qp, rcq})
	}
	if i > 0 {
		qp, _, rcq, err := newRC(c.Nodes[i], depth)
		if err != nil {
			panic(err)
		}
		if err := qp.Connect(p, c.Nodes[(i-1)/2].Addr6, uint16(7100+i)); err != nil {
			panic(err)
		}
		parent = &edge{qp, rcq}
	}
	for _, e := range children {
		if err := e.qp.WaitEstablished(p); err != nil {
			panic(err)
		}
	}
	// One receive per round per inbound direction, posted up front.
	for k := 0; k < total; k++ {
		for _, e := range children {
			if err := e.qp.PostRecv(p, verbs.RecvWR{ID: uint64(k), Capacity: 64}); err != nil {
				panic(err)
			}
		}
		if parent != nil {
			if err := parent.qp.PostRecv(p, verbs.RecvWR{ID: uint64(k), Capacity: 64}); err != nil {
				panic(err)
			}
		}
	}
	id := uint64(0)
	return func(p *sim.Proc) {
		for _, e := range children {
			e.rcq.Wait(p) // child ARRIVE
		}
		if parent != nil {
			if err := parent.qp.PostSend(p, verbs.SendWR{ID: id, Payload: buf.Virtual(1)}); err != nil {
				panic(err)
			}
			parent.rcq.Wait(p) // RELEASE from above
		}
		for _, e := range children {
			if err := e.qp.PostSend(p, verbs.SendWR{ID: id, Payload: buf.Virtual(1)}); err != nil {
				panic(err)
			}
		}
		id++
	}
}

// collHostAllreduceSetup wires rank i into a QP ring (each rank connects
// to its successor's listener on port 7200+successor) and returns the
// per-iteration step: the same 2(n-1)-step ring schedule the firmware
// runs, with the combine charged to the host CPU (1 cycle/byte, the
// era's copy/add loop) and every chunk a host-posted send plus CQ wait.
func collHostAllreduceSetup(p *sim.Proc, c *core.Cluster, i, n, total, vecWords int) func(*sim.Proc) {
	succ, pred := (i+1)%n, (i-1+n)%n
	clen := (vecWords + n - 1) / n
	if clen == 0 {
		clen = 1
	}
	steps := 2 * (n - 1)
	depth := 2 * (total*steps + 2)
	// Successor edge: this rank is the client.
	sqp, _, _, err := newRC(c.Nodes[i], depth)
	if err != nil {
		panic(err)
	}
	// Predecessor edge: this rank is the server.
	pqp, _, prcq, err := newRC(c.Nodes[i], depth)
	if err != nil {
		panic(err)
	}
	lst, err := c.Nodes[i].QPIP.Listen(uint16(7200 + i))
	if err != nil {
		panic(err)
	}
	lst.Post(pqp)
	if err := sqp.Connect(p, c.Nodes[succ].Addr6, uint16(7200+succ)); err != nil {
		panic(err)
	}
	if err := pqp.WaitEstablished(p); err != nil {
		panic(err)
	}
	_ = pred
	for k := 0; k < total*steps; k++ {
		if err := pqp.PostRecv(p, verbs.RecvWR{ID: uint64(k), Capacity: 8 * clen}); err != nil {
			panic(err)
		}
	}
	id := uint64(0)
	return func(p *sim.Proc) {
		for s := 0; s < steps; s++ {
			if err := sqp.PostSend(p, verbs.SendWR{ID: id, Payload: buf.Virtual(8 * clen)}); err != nil {
				panic(err)
			}
			id++
			prcq.Wait(p)
			// Combine (reduce-scatter phase) or place (allgather phase):
			// 1 cycle per byte on the host.
			p.Use(c.Nodes[i].CPU.Server, params.HostCycles(float64(8*clen)))
		}
	}
}

// ---- sweep and render. ----

// CollTopologies is the swept topology set.
var CollTopologies = []string{"ring", "mesh", "fattree"}

// Collective runs the host-vs-NIC collective sweep over the given node
// counts (default 2, 8, 32, 128).
func Collective(nodes []int, iters, vecWords int) CollReport {
	if len(nodes) == 0 {
		nodes = []int{2, 8, 32, 128}
	}
	if iters <= 0 {
		iters = 4
	}
	if vecWords <= 0 {
		vecWords = 64
	}
	rep := CollReport{Iters: iters, VecWords: vecWords}
	for _, topoName := range CollTopologies {
		for _, n := range nodes {
			for _, op := range []string{"barrier", "allreduce"} {
				hostLat, hostCPU := collHostRun(topoName, n, iters, vecWords, op)
				nicLat, nicCPU := collNICRun(topoName, n, iters, vecWords, op)
				rep.Rows = append(rep.Rows,
					CollRow{Topology: topoName, Nodes: n, Op: op, Mode: "host", LatencyUS: hostLat, HostCPUUS: hostCPU},
					CollRow{Topology: topoName, Nodes: n, Op: op, Mode: "nic", LatencyUS: nicLat, HostCPUUS: nicCPU},
				)
			}
		}
	}
	return rep
}

// RenderCollective formats the sweep for the terminal.
func RenderCollective(r CollReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Collectives: host-based (plain QPs) vs NIC-offloaded, %d iters, %d-word vectors\n",
		r.Iters, r.VecWords)
	fmt.Fprintf(&b, "%-8s %6s %-10s %14s %14s %9s %16s %16s\n",
		"topology", "nodes", "op", "host lat (us)", "nic lat (us)", "speedup", "host cpu/op(us)", "nic cpu/op(us)")
	for i := 0; i+1 < len(r.Rows); i += 2 {
		h, nn := r.Rows[i], r.Rows[i+1]
		fmt.Fprintf(&b, "%-8s %6d %-10s %14.1f %14.1f %8.2fx %16.1f %16.1f\n",
			h.Topology, h.Nodes, h.Op, h.LatencyUS, nn.LatencyUS,
			h.LatencyUS/nn.LatencyUS, h.HostCPUUS, nn.HostCPUUS)
	}
	return b.String()
}

package qpipnic_test

import (
	"fmt"
	"testing"

	"repro/internal/buf"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/inet"
	"repro/internal/sim"
	"repro/internal/verbs"
)

// TestEmissionFloorBoundsNextSend checks the emission floor against the
// sends it bounds. A sequential 4-node cluster runs a reliable bulk flow
// (node 0 to 1), a datagram echo (node 2 to 3) and, joined mid-run, an
// allreduce over all four. Between every two timestamps — where a
// sharded run's barrier would fall — each adapter publishes its floor
// for the engine's next event, and every frame an adapter sends must
// leave no earlier than each floor it published since its previous
// frame. The runs cover the plain and the pipelined transmit FSM and an
// adapter crash.
func TestEmissionFloorBoundsNextSend(t *testing.T) {
	crash := fault.Plan{Seed: 3, Crashes: []fault.Crash{{Node: 1, At: 3 * sim.Millisecond, Down: 2 * sim.Millisecond}}}
	for _, tc := range []struct {
		name      string
		pipelined bool
		plan      fault.Plan
	}{
		{name: "plain"},
		{name: "pipelined", pipelined: true},
		{name: "crash", plan: crash},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 4
			c := core.NewCluster(n, core.NodeConfig{QPIP: true, QPIPPipelinedTX: tc.pipelined})
			if len(tc.plan.Crashes) > 0 {
				c.InjectFaults(tc.plan)
			}
			eng := c.Engines[0]
			// bound[i] is the largest floor node i published since its
			// last frame; sends counts the frames checked.
			var bound [n]sim.Time
			sends := 0
			c.Myrinet.Fault = func(fr *fabric.Frame, _ uint64, now sim.Time) fabric.FaultDecision {
				if now < bound[fr.Src] {
					t.Fatalf("node %d sent at %v, before its published floor %v", fr.Src, now, bound[fr.Src])
				}
				bound[fr.Src] = 0
				sends++
				return fabric.FaultDecision{}
			}
			spawnFloorWorkload(t, c)
			for {
				next, ok := eng.NextAt()
				if !ok {
					break
				}
				for i, node := range c.Nodes {
					bound[i] = max(bound[i], node.QPIP.EmissionFloor(next))
				}
				eng.RunUntil(next)
			}
			if sends < 100 {
				t.Errorf("only %d frames checked", sends)
			}
		})
	}
}

// spawnFloorWorkload starts the floor test's three workloads on c.
func spawnFloorWorkload(t *testing.T, c *core.Cluster) {
	const records, window, datagrams, words = 64, 16, 24, 64
	addrs := make([]inet.Addr6, len(c.Nodes))
	for i := range addrs {
		addrs[i] = c.Nodes[i].Addr6
	}
	c.SpawnOn(1, "bulk-server", func(p *sim.Proc) {
		qp, _, rcq := rcPair(t, c.Nodes[1].QPIP, window)
		lst, err := c.Nodes[1].QPIP.Listen(7000)
		if err != nil {
			t.Errorf("Listen: %v", err)
			return
		}
		lst.Post(qp)
		if qp.WaitEstablished(p) != nil {
			return
		}
		for i := 0; i < records; i++ {
			if qp.PostRecv(p, verbs.RecvWR{ID: uint64(i), Capacity: 16 << 10}) != nil {
				return
			}
			rcq.Wait(p)
		}
	})
	c.SpawnOn(0, "bulk-client", func(p *sim.Proc) {
		qp, scq, _ := rcPair(t, c.Nodes[0].QPIP, window)
		if qp.Connect(p, addrs[1], 7000) != nil {
			return
		}
		wrs := make([]verbs.SendWR, 4)
		for sent := 0; sent < records; sent += len(wrs) {
			for j := range wrs {
				wrs[j] = verbs.SendWR{ID: uint64(sent + j), Payload: buf.Virtual(250 * (sent + j + 1))}
			}
			if _, err := qp.PostSendN(p, wrs); err != nil {
				return
			}
			for range wrs {
				scq.Wait(p)
			}
		}
	})
	for _, end := range []struct {
		node int
		echo bool
	}{{3, true}, {2, false}} {
		end := end
		c.SpawnOn(end.node, fmt.Sprintf("dgram%d", end.node), func(p *sim.Proc) {
			nic := c.Nodes[end.node].QPIP
			scq, rcq := verbs.NewCQ(nic, 64), verbs.NewCQ(nic, 64)
			qp, err := verbs.NewQP(nic, verbs.QPConfig{Transport: verbs.Unreliable, SendCQ: scq, RecvCQ: rcq, SendDepth: 32, RecvDepth: 32})
			if err == nil {
				_, err = qp.BindUDP(5000 + uint16(end.node))
			}
			for i := 0; err == nil && i < datagrams; i++ {
				err = qp.PostRecv(p, verbs.RecvWR{ID: uint64(i), Capacity: 4096})
			}
			if err != nil {
				t.Errorf("datagram node %d: %v", end.node, err)
				return
			}
			if end.echo {
				for i := 0; i < datagrams; i++ {
					comp := rcq.Wait(p)
					qp.PostSend(p, verbs.SendWR{ID: comp.WRID, Payload: comp.Payload, RemoteAddr: comp.RemoteAddr, RemotePort: comp.RemotePort})
					scq.Wait(p)
				}
				return
			}
			p.Sleep(sim.Millisecond)
			for i := 0; i < datagrams; i++ {
				qp.PostSend(p, verbs.SendWR{ID: uint64(i), Payload: buf.Virtual(100 * (i + 1)), RemoteAddr: addrs[3], RemotePort: 5003})
				scq.Wait(p)
				rcq.Wait(p)
			}
		})
	}
	for i := range c.Nodes {
		i := i
		c.SpawnOn(i, fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
			p.Sleep(2 * sim.Millisecond) // join while the flows run
			nic := c.Nodes[i].QPIP
			cq := verbs.NewCQ(nic, 16)
			q, err := verbs.NewCollQ(nic, 1, i, addrs, cq)
			if err != nil {
				t.Errorf("rank %d: %v", i, err)
				return
			}
			vec := make([]uint64, words)
			if q.PostAllreduce(p, 0, vec) == nil {
				cq.Wait(p)
			}
		})
	}
}

// rcPair makes a reliable QP of the given depth with fresh CQs.
func rcPair(t *testing.T, nic verbs.Device, depth int) (*verbs.QP, *verbs.CQ, *verbs.CQ) {
	t.Helper()
	scq, rcq := verbs.NewCQ(nic, 2*depth), verbs.NewCQ(nic, 2*depth)
	qp, err := verbs.NewQP(nic, verbs.QPConfig{Transport: verbs.Reliable, SendCQ: scq, RecvCQ: rcq, SendDepth: depth, RecvDepth: depth})
	if err != nil {
		t.Fatal(err)
	}
	return qp, scq, rcq
}

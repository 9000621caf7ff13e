package core_test

import (
	"strings"
	"testing"

	"repro/internal/buf"
	"repro/internal/core"
	"repro/internal/hostos"
	"repro/internal/params"
	"repro/internal/sim"
	"repro/internal/verbs"
)

func TestClusterWiresQPIPNodes(t *testing.T) {
	c := core.NewCluster(3, core.NodeConfig{QPIP: true})
	if c.Myrinet == nil {
		t.Fatal("no Myrinet fabric for QPIP nodes")
	}
	if c.Eth != nil {
		t.Fatal("spurious Ethernet fabric")
	}
	for i, n := range c.Nodes {
		if n.QPIP == nil {
			t.Fatalf("node %d missing QPIP adapter", i)
		}
		if n.Kernel != nil {
			t.Fatalf("node %d has a kernel without host devices", i)
		}
		if _, err := c.Routes6.Lookup(n.Addr6); err != nil {
			t.Fatalf("node %d unrouted: %v", i, err)
		}
	}
}

func TestClusterWiresHostNodes(t *testing.T) {
	c := core.NewCluster(2, core.NodeConfig{GigE: true, GM: true})
	if c.Eth == nil || c.Myrinet == nil {
		t.Fatal("missing fabric")
	}
	for i, n := range c.Nodes {
		if n.Kernel == nil || n.GigEDev == nil || n.GMDev == nil {
			t.Fatalf("node %d incompletely wired", i)
		}
	}
	// Kernels share the node CPU.
	if c.Nodes[0].Kernel.CPU() != c.Nodes[0].CPU {
		t.Fatal("kernel does not share the node CPU")
	}
}

// Three-node test: two clients talk to one QPIP server concurrently over
// separate QPs, exercising multi-connection demux on one adapter.
func TestThreeNodeConcurrentConnections(t *testing.T) {
	c := core.NewCluster(3, core.NodeConfig{QPIP: true})
	const port = 7000
	lst, err := c.Nodes[0].QPIP.Listen(port)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]buf.Buf{}
	for i := 0; i < 2; i++ {
		scq := verbs.NewCQ(c.Nodes[0].QPIP, 64)
		rcq := verbs.NewCQ(c.Nodes[0].QPIP, 64)
		qp, err := verbs.NewQP(c.Nodes[0].QPIP, verbs.QPConfig{
			Transport: verbs.Reliable, SendCQ: scq, RecvCQ: rcq,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := lst.Post(qp); err != nil {
			t.Fatal(err)
		}
		idx := i
		c.SpawnOn(0, "server", func(p *sim.Proc) {
			if err := qp.WaitEstablished(p); err != nil {
				t.Errorf("server establish: %v", err)
				return
			}
			qp.PostRecv(p, verbs.RecvWR{ID: 1, Capacity: 4096})
			comp := rcq.Wait(p)
			got[idx] = comp.Payload
		})
	}
	for i := 1; i <= 2; i++ {
		node := c.Nodes[i]
		seed := byte(i)
		c.SpawnOn(i, "client", func(p *sim.Proc) {
			scq := verbs.NewCQ(node.QPIP, 64)
			rcq := verbs.NewCQ(node.QPIP, 64)
			qp, err := verbs.NewQP(node.QPIP, verbs.QPConfig{
				Transport: verbs.Reliable, SendCQ: scq, RecvCQ: rcq,
			})
			if err != nil {
				t.Errorf("NewQP: %v", err)
				return
			}
			if err := qp.Connect(p, c.Nodes[0].Addr6, port); err != nil {
				t.Errorf("Connect: %v", err)
				return
			}
			if err := qp.PostSend(p, verbs.SendWR{ID: 1, Payload: buf.Pattern(1000, seed)}); err != nil {
				t.Errorf("PostSend: %v", err)
				return
			}
			scq.Wait(p)
		})
	}
	c.Run()
	if len(got) != 2 {
		t.Fatalf("server completed %d connections, want 2", len(got))
	}
	// Each message arrived intact from one of the clients: the first byte
	// of Pattern(n, seed) is the seed, and the whole payload must match.
	seen := map[byte]bool{}
	for _, b := range got {
		d := b.Data()
		if len(d) != 1000 {
			t.Fatalf("message length %d", len(d))
		}
		if !buf.Equal(b, buf.Pattern(1000, d[0])) {
			t.Fatal("message corrupted")
		}
		seen[d[0]] = true
	}
	if len(seen) != 2 {
		t.Fatalf("messages not from distinct clients: %v", seen)
	}
}

// Mixed cluster: QPIP and host sockets coexist on the same nodes, each
// over its own fabric.
func TestMixedStackNodes(t *testing.T) {
	c := core.NewCluster(2, core.NodeConfig{QPIP: true, GigE: true})
	doneSock, doneQP := false, false
	c.SpawnOn(1, "sock-server", func(p *sim.Proc) {
		lst := c.Nodes[1].Kernel.NewSocket(hostos.TCPSock)
		lst.Listen(5001, 4)
		s := lst.Accept(p)
		if _, err := s.RecvFull(p, 100); err == nil {
			doneSock = true
		}
	})
	c.SpawnOn(0, "sock-client", func(p *sim.Proc) {
		s := c.Nodes[0].Kernel.NewSocket(hostos.TCPSock)
		if err := s.Connect(p, c.Nodes[1].Addr4, 5001); err != nil {
			t.Errorf("sock connect: %v", err)
			return
		}
		s.Send(p, buf.Virtual(100))
	})
	c.SpawnOn(1, "qp-server", func(p *sim.Proc) {
		scq := verbs.NewCQ(c.Nodes[1].QPIP, 16)
		rcq := verbs.NewCQ(c.Nodes[1].QPIP, 16)
		qp, _ := verbs.NewQP(c.Nodes[1].QPIP, verbs.QPConfig{Transport: verbs.Reliable, SendCQ: scq, RecvCQ: rcq})
		lst, _ := c.Nodes[1].QPIP.Listen(7000)
		lst.Post(qp)
		if err := qp.WaitEstablished(p); err != nil {
			t.Errorf("qp establish: %v", err)
			return
		}
		qp.PostRecv(p, verbs.RecvWR{ID: 1, Capacity: 256})
		rcq.Wait(p)
		doneQP = true
	})
	c.SpawnOn(0, "qp-client", func(p *sim.Proc) {
		scq := verbs.NewCQ(c.Nodes[0].QPIP, 16)
		rcq := verbs.NewCQ(c.Nodes[0].QPIP, 16)
		qp, _ := verbs.NewQP(c.Nodes[0].QPIP, verbs.QPConfig{Transport: verbs.Reliable, SendCQ: scq, RecvCQ: rcq})
		if err := qp.Connect(p, c.Nodes[1].Addr6, 7000); err != nil {
			t.Errorf("qp connect: %v", err)
			return
		}
		qp.PostSend(p, verbs.SendWR{ID: 1, Payload: buf.Virtual(100)})
		scq.Wait(p)
	})
	c.Run()
	if !doneSock || !doneQP {
		t.Fatalf("sock=%v qp=%v", doneSock, doneQP)
	}
	_ = params.MTUQPIP
}

// Spawn is kept only for callers that predate per-node placement: on a
// one-engine cluster it runs the process on node 0's engine, and on a
// sharded cluster it refuses, naming SpawnOn.
func TestSpawnIsShardZeroOnlyWhenUnsharded(t *testing.T) {
	c := core.NewCluster(2, core.NodeConfig{QPIP: true})
	var at sim.Time
	p := c.Spawn("app", func(p *sim.Proc) {
		p.Sleep(5 * sim.Microsecond)
		at = p.Now()
	})
	c.Run()
	if p.Engine() != c.EngineOf(0) || !p.Done() || at != 5*sim.Microsecond {
		t.Fatalf("Spawn on one engine: engine ok=%v done=%v at=%v", p.Engine() == c.EngineOf(0), p.Done(), at)
	}

	sharded := core.NewShardedCluster(2, core.NodeConfig{QPIP: true}, core.ShardPlan{Shards: 2})
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "SpawnOn") {
			t.Fatalf("Spawn on 2 shards: recovered %q, want a panic naming SpawnOn", msg)
		}
	}()
	sharded.Spawn("app", func(*sim.Proc) {})
}

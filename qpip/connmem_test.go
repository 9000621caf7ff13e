package qpip_test

import (
	"runtime"
	"testing"

	"repro/internal/buf"
	"repro/qpip"
)

// The host memory one simulated connection costs, pinned the way
// ROADMAP 12's incast measures it: 1 024 clients on node 0, each with its
// own two CQs and a 4-deep send queue, connect to 1 024 server QPs
// sharing one 256-WR receive queue on node 1, send one message and then a
// window of four. The live heap the run leaves behind, per connection,
// must stay within the budget, which is set about 10 % above its measured
// value (4 626 B on amd64, 5 986 B before the TCB, QP, stage runner and
// transmit queue were slimmed); a change that grows a per-connection
// structure by a size class shows here. The run's processes have
// finished, so the figure covers adapter, TCB, QP and CQ state but no
// coroutine stacks.
func TestPerConnectionHeapBudget(t *testing.T) {
	const (
		conns  = 1024
		window = 4
		pool   = 256
		size   = 1024
		port   = 7800
		budget = 5050 // bytes per connection, both ends
	)
	// Two cycles empty the sync.Pools too, so pooled segments and
	// packets count on neither side.
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	c := qpip.NewCluster(2, qpip.NodeConfig{QPIP: true, QPIPMaxQPs: conns + 64})
	nicC, nicS := c.Nodes[0], c.Nodes[1]
	c.SpawnOn(1, "server", func(p *qpip.Proc) {
		rcq := qpip.NewCQ(nicS, conns*(1+window)+8)
		scq := qpip.NewCQ(nicS, 8)
		srq, err := qpip.NewSRQ(nicS, qpip.SRQConfig{Depth: pool})
		if err != nil {
			t.Errorf("NewSRQ: %v", err)
			return
		}
		lst, err := nicS.QPIP.Listen(port)
		if err != nil {
			t.Errorf("Listen: %v", err)
			return
		}
		for range conns {
			qp, err := qpip.NewQPWith(nicS, qpip.QPConfig{Transport: qpip.Reliable, SendCQ: scq, RecvCQ: rcq, SendDepth: 2, SRQ: srq})
			if err == nil {
				err = lst.Post(qp)
			}
			if err != nil {
				t.Errorf("server QP: %v", err)
				return
			}
		}
		wrs := make([]qpip.RecvWR, 16)
		for i := range wrs {
			wrs[i] = qpip.RecvWR{Capacity: size}
		}
		for range pool / len(wrs) {
			if _, err := srq.PostRecvN(p, wrs); err != nil {
				t.Errorf("PostRecvN: %v", err)
				return
			}
		}
		for got := 0; got < conns*(1+window); got++ {
			if comp := rcq.Wait(p); comp.Status != qpip.StatusSuccess {
				t.Errorf("receive %d: %v", got, comp.Status)
				return
			}
			if err := srq.PostRecv(p, qpip.RecvWR{Capacity: size}); err != nil {
				t.Errorf("PostRecv: %v", err)
				return
			}
		}
	})
	for range conns {
		c.SpawnOn(0, "client", func(p *qpip.Proc) {
			scq := qpip.NewCQ(nicC, 2*window)
			rcq := qpip.NewCQ(nicC, 2)
			qp, err := qpip.NewQPWith(nicC, qpip.QPConfig{Transport: qpip.Reliable, SendCQ: scq, RecvCQ: rcq, SendDepth: window, RecvDepth: 1})
			if err == nil {
				err = qp.Connect(p, nicS.Addr6, port)
			}
			if err != nil {
				t.Errorf("client: %v", err)
				return
			}
			for _, n := range []int{1, window} {
				for i := range n {
					if err := qp.PostSend(p, qpip.SendWR{ID: uint64(i), Payload: buf.Virtual(size)}); err != nil {
						t.Errorf("PostSend: %v", err)
						return
					}
				}
				for range n {
					if comp := scq.Wait(p); comp.Status != qpip.StatusSuccess {
						t.Errorf("send: %v", comp.Status)
						return
					}
				}
			}
		})
	}
	c.Run()
	if t.Failed() {
		return
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / conns
	t.Logf("%d B of live heap per connection", per)
	if per > budget {
		t.Errorf("%d B of live heap per connection, budget %d B", per, budget)
	}

	// Diagnostics read the adapters' own buffers: once the first read has
	// sized them, further reads allocate nothing, however many
	// connections there are. The bound leaves room for a stray runtime
	// allocation; two reads of the old per-call slices took 950 KB here.
	read := func() (segs uint64) {
		for _, node := range c.Nodes {
			for _, cs := range node.QPIP.DebugConnStats() {
				segs += cs.TCP.SegsOut
			}
		}
		return segs
	}
	first := read()
	runtime.ReadMemStats(&before)
	second, third := read(), read()
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<10 {
		t.Errorf("two DebugConnStats reads of %d connections allocated %d B, want O(1)", 2*conns, grew)
	}
	if first == 0 || second != first || third != first {
		t.Errorf("reads counted %d, %d, %d segments sent", first, second, third)
	}
	runtime.KeepAlive(c)
}

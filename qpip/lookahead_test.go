package qpip_test

import (
	"fmt"
	"testing"

	"repro/qpip"
)

// streamPairs runs pairs closed-loop bulk transfers on c, client node 2k
// to server node 2k+1, msgs full-MTU virtual records each with window
// records outstanding, and drains the cluster.
func streamPairs(t *testing.T, c *qpip.Cluster, pairs, msgs, window int) {
	t.Helper()
	size := c.Nodes[0].QPIP.MaxMessage()
	for k := 0; k < pairs; k++ {
		client, server := 2*k, 2*k+1
		port := uint16(7400 + k)
		c.SpawnOn(server, fmt.Sprintf("server%d", k), func(p *qpip.Proc) {
			qp, _, rcq, err := qpip.NewReliableQP(c.Nodes[server], window)
			if err != nil {
				t.Errorf("server %d QP: %v", k, err)
				return
			}
			lst, err := c.Nodes[server].QPIP.Listen(port)
			if err != nil {
				t.Errorf("Listen %d: %v", port, err)
				return
			}
			lst.Post(qp)
			if err := qp.WaitEstablished(p); err != nil {
				t.Errorf("server %d: %v", k, err)
				return
			}
			posted := 0
			for got := 0; got < msgs; got++ {
				for posted < msgs && posted-got < window {
					if err := qp.PostRecv(p, qpip.RecvWR{ID: uint64(posted), Capacity: size}); err != nil {
						t.Errorf("server %d PostRecv: %v", k, err)
						return
					}
					posted++
				}
				if comp := rcq.Wait(p); comp.Status != qpip.StatusSuccess || comp.ByteLen != size {
					t.Errorf("server %d record %d: %v, %d bytes", k, got, comp.Status, comp.ByteLen)
				}
			}
		})
		c.SpawnOn(client, fmt.Sprintf("client%d", k), func(p *qpip.Proc) {
			qp, scq, _, err := qpip.NewReliableQP(c.Nodes[client], window)
			if err != nil {
				t.Errorf("client %d QP: %v", k, err)
				return
			}
			if err := qp.Connect(p, c.Nodes[server].Addr6, port); err != nil {
				t.Errorf("client %d: %v", k, err)
				return
			}
			sent, inFlight := 0, 0
			for sent < msgs || inFlight > 0 {
				for sent < msgs && inFlight < window {
					if err := qp.PostSend(p, qpip.SendWR{ID: uint64(sent), Payload: qpip.VirtualMessage(size)}); err != nil {
						t.Errorf("client %d PostSend: %v", k, err)
						return
					}
					sent++
					inFlight++
				}
				if comp := scq.Wait(p); comp.Status != qpip.StatusSuccess {
					t.Errorf("client %d send %d: %v", k, comp.WRID, comp.Status)
				}
				inFlight--
			}
		})
	}
	c.Run()
}

// TestShardedEpochsCarryWork pins the model-derived lookahead (DESIGN
// §14.1) on the sharded benchmark's shape: four bulk pairs of 16 KiB
// records, each pair split across two shards by round-robin placement.
// The adapters' emission floors must widen the epochs to ten or more
// events each — the wire latency alone gives under three — while the
// run stays identical to the sequential engine.
func TestShardedEpochsCarryWork(t *testing.T) {
	const pairs, msgs, window = 4, 256, 64
	cfg := qpip.NodeConfig{QPIP: true}
	seq := qpip.NewCluster(2*pairs, cfg)
	streamPairs(t, seq, pairs, msgs, window)
	sh := qpip.NewShardedCluster(2*pairs, cfg, qpip.ShardPlan{Shards: 2})
	streamPairs(t, sh, pairs, msgs, window)

	if got, want := sh.FiredTotal(), seq.FiredTotal(); got != want {
		t.Errorf("sharded fired %d events, sequential %d", got, want)
	}
	if got, want := sh.EndTime(), seq.EndTime(); got != want {
		t.Errorf("sharded ended at %v, sequential at %v", got, want)
	}
	epochs := sh.Epochs()
	if epochs == 0 {
		t.Fatal("sharded cluster ran no epochs")
	}
	perEpoch := float64(sh.FiredTotal()) / float64(epochs)
	t.Logf("%d events in %d epochs: %.1f events per epoch", sh.FiredTotal(), epochs, perEpoch)
	if perEpoch < 10 {
		t.Errorf("%.1f events per epoch (%d events, %d epochs), want >= 10", perEpoch, sh.FiredTotal(), epochs)
	}
}

package qpipnic

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/buf"
	"repro/internal/fabric"
	"repro/internal/inet"
	"repro/internal/sim"
	"repro/internal/verbs"
	"repro/internal/wire"
)

// netCounts reads every nonzero Net cell of both adapters, keyed
// "nic<i> <name>".
func netCounts(c *cluster) map[string]uint64 {
	m := map[string]uint64{}
	for i, n := range c.nics {
		for _, name := range n.Net.Names() {
			m[fmt.Sprintf("nic%d %s", i, name)] = n.Net.Get(name)
		}
	}
	return m
}

// injectFrame puts a hand-built packet on the wire from adapter 0 to
// adapter 1, bypassing adapter 0's firmware.
func injectFrame(c *cluster, pkt *wire.Packet) {
	c.fab.Send(fabric.NewFrame(c.nics[0].Attachment(), c.nics[1].Attachment(), pkt.Len(), pkt), nil)
	c.eng.Run()
}

// sendDatagram sends one datagram from a UDP QP bound on adapter 0 to
// dst:port, calling mark just before the post.
func sendDatagram(t *testing.T, c *cluster, dst inet.Addr6, port uint16, mark func()) {
	t.Helper()
	cq := verbs.NewCQ(c.nics[0], 16)
	qp, err := verbs.NewQP(c.nics[0], verbs.QPConfig{Transport: verbs.Unreliable, SendCQ: cq, RecvCQ: cq})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := qp.BindUDP(5001); err != nil {
		t.Fatal(err)
	}
	c.eng.Spawn("send", func(p *sim.Proc) {
		mark()
		if err := qp.PostSend(p, verbs.SendWR{ID: 1, Payload: buf.Virtual(100), RemoteAddr: dst, RemotePort: port}); err != nil {
			t.Errorf("PostSend: %v", err)
		}
		cq.Wait(p) // a datagram completes whether or not it is delivered
	})
	c.eng.Run()
}

// TestFirmwareDropsCountOnce drives each firmware drop or stall path and
// checks that the event moves exactly one Net cell, by exactly one.
func TestFirmwareDropsCountOnce(t *testing.T) {
	for _, tc := range []struct {
		name  string
		nic   int
		cell  string
		tweak func(i int, cfg *Config)
		run   func(t *testing.T, c *cluster, mark func())
	}{
		{name: "corrupt header", nic: 1, cell: "rx.corrupt", run: func(t *testing.T, c *cluster, mark func()) {
			mark()
			injectFrame(c, &wire.Packet{IPHdr: []byte{0x60, 0, 0, 0}})
		}},
		{name: "unknown next header", nic: 1, cell: "rx.drop.no-port", run: func(t *testing.T, c *cluster, mark func()) {
			mark()
			injectFrame(c, &wire.Packet{IPHdr: inet.Marshal6(&inet.Header6{
				NextHeader: 0xfd, HopLimit: inet.DefaultHopLimit,
				Src: inet.NodeAddr6(0), Dst: inet.NodeAddr6(1),
			})})
		}},
		{name: "UDP to an unbound port", nic: 1, cell: "rx.drop.no-port", run: func(t *testing.T, c *cluster, mark func()) {
			sendDatagram(t, c, inet.NodeAddr6(1), 5999, mark)
		}},
		{name: "UDP with no posted WR", nic: 1, cell: "rx.drop.no-wr", run: func(t *testing.T, c *cluster, mark func()) {
			cq := verbs.NewCQ(c.nics[1], 16)
			qp, err := verbs.NewQP(c.nics[1], verbs.QPConfig{Transport: verbs.Unreliable, SendCQ: cq, RecvCQ: cq})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := qp.BindUDP(5002); err != nil {
				t.Fatal(err)
			}
			sendDatagram(t, c, inet.NodeAddr6(1), 5002, mark)
		}},
		{name: "UDP send with no route", nic: 0, cell: "tx.drop.no-route", run: func(t *testing.T, c *cluster, mark func()) {
			sendDatagram(t, c, inet.NodeAddr6(7), 5002, mark)
		}},
		{name: "RNR stash", nic: 1, cell: "rx.rnr", run: func(t *testing.T, c *cluster, mark func()) {
			// Two connections share a pool holding one receive WR: the
			// first record takes it, and the second, still inside its own
			// connection's advertised window, waits in SRAM.
			srq, err := verbs.NewSRQ(c.nics[1], verbs.SRQConfig{Depth: 16})
			if err != nil {
				t.Fatal(err)
			}
			clis, _, _, _ := srqPair(t, c, srq, 7000, 2)
			c.eng.Spawn("client", func(p *sim.Proc) {
				if err := srq.PostRecv(p, verbs.RecvWR{ID: 1, Capacity: 128}); err != nil {
					t.Errorf("PostRecv: %v", err)
				}
				for _, cli := range clis {
					if err := cliConnect(p, cli); err != nil {
						t.Errorf("Connect: %v", err)
						return
					}
				}
				for i, cli := range clis {
					if i == 1 {
						p.Sleep(sim.Millisecond) // the first record is placed
						mark()
					}
					if err := cli.PostSend(p, verbs.SendWR{ID: uint64(i), Payload: buf.Virtual(64)}); err != nil {
						t.Errorf("PostSend %d: %v", i, err)
					}
				}
			})
			c.eng.Run()
		}},
		{name: "no idle QP at accept", nic: 1, cell: "accept.no-idle-qp", run: func(t *testing.T, c *cluster, mark func()) {
			if _, err := c.nics[1].Listen(7000); err != nil {
				t.Fatal(err)
			}
			cq := verbs.NewCQ(c.nics[0], 16)
			cli, err := verbs.NewQP(c.nics[0], verbs.QPConfig{Transport: verbs.Reliable, SendCQ: cq, RecvCQ: cq})
			if err != nil {
				t.Fatal(err)
			}
			c.eng.Spawn("client", func(p *sim.Proc) {
				mark()
				cli.Connect(p, inet.NodeAddr6(1), 7000)
			})
			// Stop before the SYN retransmit tries again.
			c.eng.RunFor(100 * sim.Millisecond)
		}},
		{name: "QP-table exhaustion", nic: 0, cell: "qp.exhausted",
			tweak: func(i int, cfg *Config) { cfg.MaxQPs = 1 },
			run: func(t *testing.T, c *cluster, mark func()) {
				cq := verbs.NewCQ(c.nics[0], 16)
				cfg := verbs.QPConfig{Transport: verbs.Reliable, SendCQ: cq, RecvCQ: cq}
				if _, err := verbs.NewQP(c.nics[0], cfg); err != nil {
					t.Fatal(err)
				}
				mark()
				if _, err := verbs.NewQP(c.nics[0], cfg); !errors.Is(err, verbs.ErrQPExhausted) {
					t.Fatalf("second QP: %v, want ErrQPExhausted", err)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, tc.tweak)
			var before map[string]uint64
			tc.run(t, c, func() { before = netCounts(c) })
			if before == nil {
				t.Fatal("the scenario never reached its event")
			}
			moved := map[string]uint64{}
			for k, v := range netCounts(c) {
				if v != before[k] {
					moved[k] = v - before[k]
				}
			}
			want := map[string]uint64{fmt.Sprintf("nic%d %s", tc.nic, tc.cell): 1}
			if !reflect.DeepEqual(moved, want) {
				t.Errorf("cells moved %v, want %v", moved, want)
			}
			for i, n := range c.nics {
				if got, rnr := n.Stats().StashedRecords, n.Net.Get("rx.rnr"); got != rnr {
					t.Errorf("nic%d Stats().StashedRecords = %d, rx.rnr = %d", i, got, rnr)
				}
			}
		})
	}
}

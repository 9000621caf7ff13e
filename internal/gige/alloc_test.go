package gige_test

import (
	"testing"

	"repro/internal/buf"
	"repro/internal/core"
	"repro/internal/hostos"
	"repro/internal/inet"
	"repro/internal/params"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// One data segment's whole trip through the host stack — tcp_output, tx
// DMA (gm: firmware staging, then the bus), the fabric, rx DMA, coalesced
// interrupt, softirq, tcp_input, reader wakeup, and the ACK's trip back —
// allocates nothing in steady state on either conventional adapter:
// packets, segments, frames and events recycle, each stage's operand waits
// in a sim.Jobs slot beside its resource, and every queue on the way
// reuses its backing array.
func TestHostStackSegmentAllocBudget(t *testing.T) {
	if pool.RaceEnabled {
		t.Skip("race-mode sync.Pool drops recycles by design")
	}
	for _, tc := range []struct {
		name string
		cfg  core.NodeConfig
		mtu  int
	}{
		{"gige", core.NodeConfig{GigE: true}, params.MTUEthernet},
		{"gm", core.NodeConfig{GM: true}, params.MTUJumbo},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := core.NewCluster(2, tc.cfg)
			eng, ks := c.EngineOf(0), [2]*hostos.Kernel{c.Nodes[0].Kernel, c.Nodes[1].Kernel}
			const port, burst = 7000, 64
			mss := tc.mtu - inet.IPv4HeaderLen - tcp.BaseHeaderLen - tcp.TimestampOptLen
			received := 0
			c.SpawnOn(1, "server", func(p *sim.Proc) {
				lst := ks[1].NewSocket(hostos.TCPSock)
				if err := lst.Listen(port, 1); err != nil {
					t.Error(err)
					return
				}
				s := lst.Accept(p)
				for {
					b, err := s.Recv(p, 1<<20)
					if err != nil {
						return
					}
					received += b.Len()
				}
			})
			var sender *sim.Proc
			sender = c.SpawnOn(0, "client", func(p *sim.Proc) {
				s := ks[0].NewSocket(hostos.TCPSock)
				s.SetNoDelay(true)
				if err := s.Connect(p, inet.NodeAddr4(1), port); err != nil {
					t.Error(err)
					return
				}
				for {
					p.Suspend() // one burst per wake
					for i := 0; i < burst; i++ {
						if err := s.Send(p, buf.Virtual(mss)); err != nil {
							t.Error(err)
							return
						}
					}
				}
			})
			eng.Run() // connect, then both sides park
			step := func() {
				eng.After(0, "burst", sender.WakeFn())
				eng.Run()
			}
			for i := 0; i < 8; i++ {
				step()
			}
			segs := ks[0].Stats().SegsOut
			per := testing.AllocsPerRun(20, step) / burst
			if got := (ks[0].Stats().SegsOut - segs) / 21; got != burst {
				t.Fatalf("%d data segments per burst, want %d", got, burst)
			}
			if received != (8+21)*burst*mss {
				t.Fatalf("server read %d bytes, want %d", received, (8+21)*burst*mss)
			}
			if per > 0.25 {
				t.Errorf("%.2f allocations per data segment and its ACK after warmup, want <= 0.25", per)
			}
		})
	}
}

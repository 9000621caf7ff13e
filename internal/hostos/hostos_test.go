package hostos_test

import (
	"testing"

	"repro/internal/buf"
	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/gige"
	"repro/internal/gm"
	"repro/internal/hostos"
	"repro/internal/hw"
	"repro/internal/inet"
	"repro/internal/params"
	"repro/internal/sim"
	"repro/internal/wire"
)

// hostCluster is a two-node host-stack testbed over a chosen link type.
type hostCluster struct {
	eng     *sim.Engine
	fab     *fabric.Fabric
	kernels [2]*hostos.Kernel
	atts    [2]int // fabric attachments, for fault plans
}

func newGigECluster(t *testing.T, mtu int) *hostCluster {
	return newFaultyGigECluster(t, mtu, nil)
}

// newFaultyGigECluster is newGigECluster with inj (if non-nil) attached to
// the fabric.
func newFaultyGigECluster(t *testing.T, mtu int, inj *fault.Injector) *hostCluster {
	t.Helper()
	eng := sim.NewEngine()
	fab := fabric.New(eng, fabric.Config{
		Name:         "eth",
		Bandwidth:    params.GigEBandwidth,
		MTU:          mtu,
		LinkOverhead: params.EthernetOverhead,
		HopLatency:   params.GigESwitchLatency,
		PropDelay:    params.CableLatency,
	})
	if inj != nil {
		inj.Attach(fab)
	}
	c := &hostCluster{eng: eng, fab: fab}
	var devs [2]*gige.Device
	for i := 0; i < 2; i++ {
		bus := hw.NewPCIBus(eng, "pci", params.PCIBandwidth, params.PCIDMASetup, params.PCIWriteLatency)
		c.kernels[i] = hostos.NewKernel(eng, "host", inet.NodeAddr4(i), nil, bus)
		devs[i] = gige.New(eng, c.kernels[i], fab, gige.Config{Name: "eth0", MTU: mtu})
		c.atts[i] = devs[i].Attachment()
	}
	c.kernels[0].AddRoute(inet.NodeAddr4(1), devs[0], devs[1].Attachment())
	c.kernels[1].AddRoute(inet.NodeAddr4(0), devs[1], devs[0].Attachment())
	return c
}

func newGMCluster(t *testing.T) *hostCluster {
	t.Helper()
	eng := sim.NewEngine()
	fab := fabric.New(eng, fabric.Config{
		Name:         "myri",
		Bandwidth:    params.MyrinetBandwidth,
		LinkOverhead: params.MyrinetHeaderBytes,
		CutThrough:   true,
		HopLatency:   params.MyrinetHopLatency,
		PropDelay:    params.CableLatency,
	})
	c := &hostCluster{eng: eng}
	var devs [2]*gm.Device
	for i := 0; i < 2; i++ {
		bus := hw.NewPCIBus(eng, "pci", params.PCIBandwidth, params.PCIDMASetup, params.PCIWriteLatency)
		c.kernels[i] = hostos.NewKernel(eng, "host", inet.NodeAddr4(i), nil, bus)
		devs[i] = gm.New(eng, c.kernels[i], fab, gm.Config{Name: "myri0", MTU: params.MTUJumbo})
	}
	c.kernels[0].AddRoute(inet.NodeAddr4(1), devs[0], devs[1].Attachment())
	c.kernels[1].AddRoute(inet.NodeAddr4(0), devs[1], devs[0].Attachment())
	return c
}

func TestTCPConnectOverGigE(t *testing.T) {
	c := newGigECluster(t, params.MTUEthernet)
	var accepted *hostos.Socket
	c.eng.Spawn("server", func(p *sim.Proc) {
		lst := c.kernels[1].NewSocket(hostos.TCPSock)
		if err := lst.Listen(5001, 8); err != nil {
			t.Errorf("Listen: %v", err)
			return
		}
		accepted = lst.Accept(p)
	})
	var connErr error
	c.eng.Spawn("client", func(p *sim.Proc) {
		s := c.kernels[0].NewSocket(hostos.TCPSock)
		connErr = s.Connect(p, inet.NodeAddr4(1), 5001)
	})
	c.eng.Run()
	if connErr != nil {
		t.Fatalf("Connect: %v", connErr)
	}
	if accepted == nil {
		t.Fatal("Accept never returned")
	}
	if addr, port := accepted.RemoteAddr(); addr != inet.NodeAddr4(0) || port == 0 {
		t.Errorf("accepted peer %v:%d", addr, port)
	}
}

// A SYN that finds the listener's backlog full is dropped and counted
// (accept.backlog-full); the client's SYN retransmit then connects once
// the server has drained the queue.
func TestSYNAtFullBacklogCountedAndRetried(t *testing.T) {
	c := newGigECluster(t, params.MTUEthernet)
	const clients = 3
	accepted := 0
	c.eng.Spawn("server", func(p *sim.Proc) {
		lst := c.kernels[1].NewSocket(hostos.TCPSock)
		if err := lst.Listen(5001, 1); err != nil {
			t.Errorf("Listen: %v", err)
			return
		}
		p.Sleep(500 * sim.Millisecond) // accept late: the first child fills the backlog
		for ; accepted < clients; accepted++ {
			lst.Accept(p)
		}
	})
	connected := 0
	for i := 0; i < clients; i++ {
		c.eng.Spawn("client", func(p *sim.Proc) {
			p.Sleep(sim.Time(i) * 10 * sim.Millisecond) // after the first child is queued
			s := c.kernels[0].NewSocket(hostos.TCPSock)
			if err := s.Connect(p, inet.NodeAddr4(1), 5001); err != nil {
				t.Errorf("Connect: %v", err)
				return
			}
			connected++
		})
	}
	c.eng.Run()
	if connected != clients || accepted != clients {
		t.Fatalf("%d connected, %d accepted, want %d", connected, accepted, clients)
	}
	if got := c.kernels[1].Net.Get("accept.backlog-full"); got == 0 {
		t.Error("no SYN was counted as dropped at the full backlog")
	}
	if c.kernels[0].Stats().Retransmits == 0 {
		t.Error("every client connected without a SYN retransmit")
	}
}

// A SYN from a host the listener has no route back to is dropped and
// counted as rx.drop.no-route.
func TestSYNWithoutReturnRouteCounted(t *testing.T) {
	c := newGigECluster(t, params.MTUEthernet)
	bus := hw.NewPCIBus(c.eng, "pci", params.PCIBandwidth, params.PCIDMASetup, params.PCIWriteLatency)
	k := hostos.NewKernel(c.eng, "stranger", inet.NodeAddr4(2), nil, bus)
	dev := gige.New(c.eng, k, c.fab, gige.Config{Name: "eth0"})
	k.AddRoute(inet.NodeAddr4(1), dev, c.atts[1])
	lst := c.kernels[1].NewSocket(hostos.TCPSock)
	if err := lst.Listen(5001, 8); err != nil {
		t.Fatal(err)
	}
	c.eng.Spawn("client", func(p *sim.Proc) {
		k.NewSocket(hostos.TCPSock).Connect(p, inet.NodeAddr4(1), 5001)
	})
	c.eng.RunFor(sim.Second) // before the SYN retransmit
	if got := c.kernels[1].Net.Get("rx.drop.no-route"); got != 1 {
		t.Errorf("rx.drop.no-route = %d, want 1", got)
	}
}

// transferTest sends pieces over one connection, one Send each, and checks
// that a single RecvFull returns their concatenation.
func transferTest(t *testing.T, c *hostCluster, pieces []buf.Buf) {
	t.Helper()
	want := buf.Concat(pieces...)
	total := want.Len()
	var got buf.Buf
	c.eng.Spawn("server", func(p *sim.Proc) {
		lst := c.kernels[1].NewSocket(hostos.TCPSock)
		if err := lst.Listen(5001, 8); err != nil {
			t.Errorf("Listen: %v", err)
			return
		}
		s := lst.Accept(p)
		b, err := s.RecvFull(p, total)
		if err != nil {
			t.Errorf("RecvFull: %v", err)
		}
		got = b
	})
	c.eng.Spawn("client", func(p *sim.Proc) {
		s := c.kernels[0].NewSocket(hostos.TCPSock)
		s.SetNoDelay(true)
		if err := s.Connect(p, inet.NodeAddr4(1), 5001); err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		for _, piece := range pieces {
			if err := s.Send(p, piece); err != nil {
				t.Errorf("Send: %v", err)
				return
			}
		}
	})
	c.eng.Run()
	if got.Len() != total {
		t.Fatalf("received %d bytes, want %d", got.Len(), total)
	}
	if !buf.Equal(got, want) {
		t.Fatal("data corrupted in transit")
	}
}

// patternPieces cuts a seeded pattern of total bytes into chunk-sized sends.
func patternPieces(total, chunk int) []buf.Buf {
	want := buf.Pattern(total, 3)
	var pieces []buf.Buf
	for off := 0; off < total; off += chunk {
		pieces = append(pieces, want.Slice(off, min(off+chunk, total)))
	}
	return pieces
}

func TestBulkTransferIntegrityGigE(t *testing.T) {
	transferTest(t, newGigECluster(t, params.MTUEthernet), patternPieces(200_000, 16*1024))
}

func TestBulkTransferIntegrityGM(t *testing.T) {
	transferTest(t, newGMCluster(t), patternPieces(200_000, 16*1024))
}

// RecvFull folds runs of virtual buffers into one as they arrive; real
// bytes between them must come out where they went in, and the virtual
// runs as zeros.
func TestRecvFullMixesVirtualAndRealData(t *testing.T) {
	transferTest(t, newGigECluster(t, params.MTUEthernet), []buf.Buf{
		buf.Virtual(5000), buf.Virtual(3000), buf.Pattern(4000, 7),
		buf.Virtual(20_000), buf.Pattern(10, 9), buf.Virtual(1),
	})
}

func TestSendBlocksOnFullBuffer(t *testing.T) {
	// A slow reader must throttle the writer through sndbuf + window.
	c := newGigECluster(t, params.MTUEthernet)
	total := 500_000
	var received int
	c.eng.Spawn("server", func(p *sim.Proc) {
		lst := c.kernels[1].NewSocket(hostos.TCPSock)
		lst.Listen(5001, 8)
		s := lst.Accept(p)
		for received < total {
			b, err := s.Recv(p, 8192)
			if err != nil {
				t.Errorf("Recv: %v", err)
				return
			}
			received += b.Len()
			p.Sleep(200 * sim.Microsecond) // slow consumer
		}
	})
	c.eng.Spawn("client", func(p *sim.Proc) {
		s := c.kernels[0].NewSocket(hostos.TCPSock)
		s.SetNoDelay(true)
		if err := s.Connect(p, inet.NodeAddr4(1), 5001); err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		for off := 0; off < total; off += 16384 {
			if err := s.Send(p, buf.Virtual(16384)); err != nil {
				t.Errorf("Send: %v", err)
				return
			}
		}
	})
	c.eng.Run()
	if received < total {
		t.Fatalf("received %d of %d", received, total)
	}
}

func TestCloseDeliversEOF(t *testing.T) {
	c := newGigECluster(t, params.MTUEthernet)
	var eofErr error
	c.eng.Spawn("server", func(p *sim.Proc) {
		lst := c.kernels[1].NewSocket(hostos.TCPSock)
		lst.Listen(5001, 8)
		s := lst.Accept(p)
		if _, err := s.RecvFull(p, 100); err != nil {
			t.Errorf("RecvFull: %v", err)
		}
		_, eofErr = s.Recv(p, 100)
	})
	c.eng.Spawn("client", func(p *sim.Proc) {
		s := c.kernels[0].NewSocket(hostos.TCPSock)
		if err := s.Connect(p, inet.NodeAddr4(1), 5001); err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		s.Send(p, buf.Pattern(100, 1))
		s.Close(p)
	})
	c.eng.Run()
	if eofErr != hostos.ErrConnClosed {
		t.Fatalf("Recv after peer close = %v, want EOF", eofErr)
	}
}

func TestUDPSocketsEndToEnd(t *testing.T) {
	c := newGigECluster(t, params.MTUEthernet)
	payload := buf.Pattern(700, 9)
	var got buf.Buf
	var from inet.Addr4
	var fromPort uint16
	c.eng.Spawn("server", func(p *sim.Proc) {
		s := c.kernels[1].NewSocket(hostos.UDPSock)
		if _, err := s.BindUDP(6000); err != nil {
			t.Errorf("BindUDP: %v", err)
			return
		}
		b, a, pt, err := s.RecvFrom(p)
		if err != nil {
			t.Errorf("RecvFrom: %v", err)
			return
		}
		got, from, fromPort = b, a, pt
	})
	c.eng.Spawn("client", func(p *sim.Proc) {
		s := c.kernels[0].NewSocket(hostos.UDPSock)
		if _, err := s.BindUDP(6001); err != nil {
			t.Errorf("BindUDP: %v", err)
			return
		}
		if err := s.SendTo(p, payload, inet.NodeAddr4(1), 6000); err != nil {
			t.Errorf("SendTo: %v", err)
		}
	})
	c.eng.Run()
	if !buf.Equal(got, payload) {
		t.Fatal("datagram corrupted")
	}
	if from != inet.NodeAddr4(0) || fromPort != 6001 {
		t.Errorf("source = %v:%d", from, fromPort)
	}
}

func TestUDPOversizedDatagramRejected(t *testing.T) {
	c := newGigECluster(t, params.MTUEthernet)
	var sendErr error
	c.eng.Spawn("client", func(p *sim.Proc) {
		s := c.kernels[0].NewSocket(hostos.UDPSock)
		s.BindUDP(6001)
		sendErr = s.SendTo(p, buf.Virtual(3000), inet.NodeAddr4(1), 6000)
	})
	c.eng.Run()
	if sendErr == nil {
		t.Fatal("datagram above MTU accepted (no IP fragmentation modeled)")
	}
}

// loopbackPingPong measures the per-message host overhead the way the
// paper does for Table 1: RTT through the loopback interface.
func loopbackPingPong(t *testing.T, iters int) (perMsgUS float64) {
	t.Helper()
	eng := sim.NewEngine()
	bus := hw.NewPCIBus(eng, "pci", params.PCIBandwidth, params.PCIDMASetup, params.PCIWriteLatency)
	k := hostos.NewKernel(eng, "host", inet.NodeAddr4(0), nil, bus)
	var totalBusy sim.Time
	done := false
	eng.Spawn("server", func(p *sim.Proc) {
		lst := k.NewSocket(hostos.TCPSock)
		lst.Listen(5001, 8)
		s := lst.Accept(p)
		for !done {
			if _, err := s.Recv(p, 64); err != nil {
				return
			}
			if err := s.Send(p, buf.Virtual(1)); err != nil {
				return
			}
		}
	})
	eng.Spawn("client", func(p *sim.Proc) {
		s := k.NewSocket(hostos.TCPSock)
		s.SetNoDelay(true)
		if err := s.Connect(p, inet.NodeAddr4(0), 5001); err != nil {
			t.Errorf("loopback connect: %v", err)
			return
		}
		// Warmup.
		s.Send(p, buf.Virtual(1))
		s.RecvFull(p, 1)
		busy0 := k.CPU().BusyTotal()
		for i := 0; i < iters; i++ {
			s.Send(p, buf.Virtual(1))
			if _, err := s.RecvFull(p, 1); err != nil {
				t.Errorf("pingpong recv: %v", err)
				return
			}
		}
		totalBusy = k.CPU().BusyTotal() - busy0
		done = true
		s.Close(p)
	})
	eng.Run()
	// Each iteration moves 2 messages, each traversing one send path and
	// one receive path.
	return totalBusy.Micros() / float64(2*iters)
}

func TestLoopbackOverheadNearTable1(t *testing.T) {
	got := loopbackPingPong(t, 50)
	// Paper Table 1: 29.9 us per 1-byte message through the host stack
	// (a lower bound, excluding driver work). Accept a band around it.
	if got < 20 || got > 45 {
		t.Errorf("host per-message overhead = %.1f us, want ~25-40 (Table 1: 29.9)", got)
	}
	t.Logf("host loopback per-message overhead: %.1f us (paper: 29.9)", got)
}

// ttcpLike measures one-way bulk throughput and sender/receiver CPU.
func ttcpLike(t *testing.T, c *hostCluster, total, chunk int) (mbps, sndUtil, rcvUtil float64) {
	t.Helper()
	var start, end sim.Time
	var busy0Snd, busy0Rcv sim.Time
	c.eng.Spawn("server", func(p *sim.Proc) {
		lst := c.kernels[1].NewSocket(hostos.TCPSock)
		lst.Listen(5001, 8)
		s := lst.Accept(p)
		if _, err := s.RecvFull(p, total); err != nil {
			t.Errorf("RecvFull: %v", err)
		}
		end = p.Now()
	})
	c.eng.Spawn("client", func(p *sim.Proc) {
		s := c.kernels[0].NewSocket(hostos.TCPSock)
		s.SetNoDelay(true)
		if err := s.Connect(p, inet.NodeAddr4(1), 5001); err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		start = p.Now()
		busy0Snd = c.kernels[0].CPU().BusyTotal()
		busy0Rcv = c.kernels[1].CPU().BusyTotal()
		for off := 0; off < total; off += chunk {
			if err := s.Send(p, buf.Virtual(chunk)); err != nil {
				t.Errorf("Send: %v", err)
				return
			}
		}
	})
	c.eng.Run()
	dur := end - start
	mbps = float64(total) / 1e6 / dur.Seconds()
	sndUtil = float64(c.kernels[0].CPU().BusyTotal()-busy0Snd) / float64(dur)
	rcvUtil = float64(c.kernels[1].CPU().BusyTotal()-busy0Rcv) / float64(dur)
	return mbps, sndUtil, rcvUtil
}

func TestTtcpGigEShape(t *testing.T) {
	mbps, snd, rcv := ttcpLike(t, newGigECluster(t, params.MTUEthernet), 10<<20, 16*1024)
	t.Logf("GigE 1500B: %.1f MB/s, sender %.0f%%, receiver %.0f%%", mbps, snd*100, rcv*100)
	// Figure 4 shape: tens of MB/s with a large fraction of one CPU busy.
	if mbps < 25 || mbps > 90 {
		t.Errorf("GigE throughput %.1f MB/s out of plausible band", mbps)
	}
	if snd < 0.25 && rcv < 0.25 {
		t.Errorf("host CPUs nearly idle (%.0f%%/%.0f%%): cost model broken", snd*100, rcv*100)
	}
}

func TestTtcpGMShape(t *testing.T) {
	mbps, snd, rcv := ttcpLike(t, newGMCluster(t), 10<<20, 16*1024)
	t.Logf("IP/Myrinet 9000B: %.1f MB/s, sender %.0f%%, receiver %.0f%%", mbps, snd*100, rcv*100)
	if mbps < 35 || mbps > 110 {
		t.Errorf("IP/Myrinet throughput %.1f MB/s out of plausible band", mbps)
	}
}

// One data segment damaged on the wire fails the receiver's software
// checksum: the kernel counts it once under the "rx.corrupt" cell the QPIP
// adapter shares, drops it, and the sender's retransmission still
// delivers the stream intact.
func TestCorruptFrameCountedAndRetransmitted(t *testing.T) {
	c := newGigECluster(t, params.MTUEthernet)
	inj := fault.NewInjector(fault.Plan{Seed: 1, CorruptProb: 1})
	c.fab.Fault = func(fr *fabric.Frame, n uint64, now sim.Time) fabric.FaultDecision {
		if fr.Src != c.atts[0] || n != 20 {
			return fabric.FaultDecision{}
		}
		return inj.Apply(fr, n, now)
	}
	transferTest(t, c, patternPieces(100_000, 16*1024))
	if got := inj.Stats().Corrupts; got != 1 {
		t.Fatalf("%d frames corrupted, want 1", got)
	}
	k := c.kernels[1]
	if got := k.Net.Get("rx.corrupt"); got != 1 {
		t.Errorf("rx.corrupt = %d, want 1", got)
	}
	if c.kernels[0].Stats().Retransmits == 0 {
		t.Error("stream intact without a retransmission of the damaged segment")
	}
}

func TestRetransmissionRecoversOnLossyFabric(t *testing.T) {
	// Drop every 50th frame.
	c := newFaultyGigECluster(t, params.MTUEthernet, fault.NewInjector(fault.Plan{DropEvery: 50}))
	eng, kernels := c.eng, c.kernels

	total := 300_000
	want := buf.Pattern(total, 5)
	var got buf.Buf
	eng.Spawn("server", func(p *sim.Proc) {
		lst := kernels[1].NewSocket(hostos.TCPSock)
		lst.Listen(5001, 8)
		s := lst.Accept(p)
		b, err := s.RecvFull(p, total)
		if err != nil {
			t.Errorf("RecvFull: %v", err)
		}
		got = b
	})
	eng.Spawn("client", func(p *sim.Proc) {
		s := kernels[0].NewSocket(hostos.TCPSock)
		s.SetNoDelay(true)
		if err := s.Connect(p, inet.NodeAddr4(1), 5001); err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		for off := 0; off < total; off += 16384 {
			end := off + 16384
			if end > total {
				end = total
			}
			if err := s.Send(p, want.Slice(off, end)); err != nil {
				t.Errorf("Send: %v", err)
				return
			}
		}
	})
	eng.Run()
	if !buf.Equal(got, want) {
		t.Fatalf("data corrupted across lossy fabric (got %d bytes)", got.Len())
	}
	if kernels[0].Stats().Retransmits == 0 {
		t.Error("no retransmissions despite forced loss")
	}
}

// A second interrupt can be charged before the first batch's completion
// runs. Each ISR completion must then reap exactly the packets its own
// interrupt charged — in ring order — not whatever the ring holds by the
// time it runs.
func TestRxCoalescerReapsPerInterruptBatches(t *testing.T) {
	eng := sim.NewEngine()
	bus := hw.NewPCIBus(eng, "pci", params.PCIBandwidth, params.PCIDMASetup, params.PCIWriteLatency)
	k := hostos.NewKernel(eng, "host", inet.NodeAddr4(0), nil, bus)
	rx := hostos.NewRxCoalescer(k, "eth0", 2, sim.Millisecond)
	pkt := func(id uint16) *wire.Packet {
		return &wire.Packet{IsV4: true, IPHdr: inet.Marshal4(&inet.Header4{
			TotalLen: inet.IPv4HeaderLen, ID: id, TTL: 64, Protocol: 0xfd,
			Src: inet.NodeAddr4(1), Dst: inet.NodeAddr4(0),
		})}
	}
	// Five packets in one tick with a two-packet threshold: interrupts of
	// two and two are charged back to back, the fifth waits for the timer.
	for id := uint16(0); id < 5; id++ {
		rx.Enqueue(pkt(id))
	}
	if got := rx.Line().Fired(); got != 2 {
		t.Fatalf("%d interrupts for five same-tick packets at threshold 2, want 2", got)
	}
	// The kernel charges one softirq per packet handed to it, so the CPU
	// time beyond the interrupt charges counts the packets delivered.
	isr := params.US(params.HostIRQUS + 2*params.HostDriverRxReapUS)
	delivered := func(isrBusy sim.Time) sim.Time {
		return (k.CPU().BusyTotal() - isrBusy) / params.US(params.HostSoftirqPerPktUS)
	}
	for i, want := range []sim.Time{2, 4} {
		eng.RunUntil(sim.Time(i+1) * isr)
		if got := delivered(2 * isr); got != want {
			t.Fatalf("after ISR completion %d the kernel saw %d packets, want %d", i+1, got, want)
		}
	}
	eng.Run()
	if got := delivered(2*isr + params.US(params.HostIRQUS+params.HostDriverRxReapUS)); got != 5 {
		t.Fatalf("kernel saw %d packets in all, want 5", got)
	}
	if got := rx.Line().Fired(); got != 3 {
		t.Errorf("%d interrupts in all, want 3 (the straggler's throttle timer)", got)
	}
}

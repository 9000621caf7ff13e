package hostos_test

import (
	"errors"
	"testing"

	"repro/internal/buf"
	"repro/internal/fault"
	"repro/internal/hostos"
	"repro/internal/inet"
	"repro/internal/params"
	"repro/internal/sim"
)

// These scenarios drive every way a host TCP connection dies — refusal,
// reset, retry exhaustion, orderly close — and check the error each side
// sees and that both kernels reap the TCB.

// forever ends a partition after any scenario.
const forever = sim.Time(1 << 62)

func checkReaped(t *testing.T, c *hostCluster) {
	t.Helper()
	for i, k := range c.kernels {
		if n := k.LiveConns(); n != 0 {
			t.Errorf("kernel %d: %d live connections at the end, want 0", i, n)
		}
	}
}

func TestConnectToClosedPortRefused(t *testing.T) {
	c := newGigECluster(t, params.MTUEthernet)
	var connErr error
	c.eng.Spawn("client", func(p *sim.Proc) {
		s := c.kernels[0].NewSocket(hostos.TCPSock)
		connErr = s.Connect(p, inet.NodeAddr4(1), 5999)
	})
	c.eng.Run()
	if !errors.Is(connErr, hostos.ErrConnRefused) {
		t.Fatalf("Connect to a closed port = %v, want ErrConnRefused", connErr)
	}
	if got := c.kernels[1].Net.Get("conn.refused"); got != 1 {
		t.Errorf("server conn.refused = %d, want 1", got)
	}
	if now := c.eng.Now(); now > sim.Second {
		t.Errorf("refusal took %v: the SYN retry budget was spent", now)
	}
	checkReaped(t, c)
}

// TestSegmentToReapedConnectionResets lets the server's retry budget
// expire behind a one-way partition, so its TCB is reaped while the
// client's lives on. The client's next segment then finds no TCB and is
// answered with an RST that resets the client.
func TestSegmentToReapedConnectionResets(t *testing.T) {
	// Server-to-client frames (attachment 1 to 0) are lost from 1 s until
	// well past the server's retry budget (about 565 s of backed-off RTOs).
	c := newFaultyGigECluster(t, params.MTUEthernet, fault.NewInjector(fault.Plan{
		Partitions: []fault.Partition{{Src: 1, Dst: 0, From: sim.Second, To: 1000 * sim.Second}},
	}))
	if c.atts != [2]int{0, 1} {
		t.Fatalf("attachments %v, the partition assumes [0 1]", c.atts)
	}
	var srvErr, cliErr error
	c.eng.Spawn("server", func(p *sim.Proc) {
		lst := c.kernels[1].NewSocket(hostos.TCPSock)
		lst.Listen(5001, 8)
		s := lst.Accept(p)
		p.Sleep(2 * sim.Second)
		if err := s.Send(p, buf.Pattern(1000, 1)); err != nil {
			t.Errorf("server Send: %v", err)
		}
		_, srvErr = s.Recv(p, 1000)
	})
	c.eng.Spawn("client", func(p *sim.Proc) {
		s := c.kernels[0].NewSocket(hostos.TCPSock)
		if err := s.Connect(p, inet.NodeAddr4(1), 5001); err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		p.Sleep(1100 * sim.Second)
		if err := s.Send(p, buf.Pattern(1000, 2)); err != nil {
			t.Errorf("client Send: %v", err)
		}
		_, cliErr = s.Recv(p, 1000)
	})
	c.eng.Run()
	if !errors.Is(srvErr, hostos.ErrTimedOut) {
		t.Errorf("server Recv = %v, want ErrTimedOut", srvErr)
	}
	if !errors.Is(cliErr, hostos.ErrConnReset) {
		t.Errorf("client Recv = %v, want ErrConnReset", cliErr)
	}
	if got := c.kernels[1].Net.Get("rx.unknown-rst"); got == 0 {
		t.Error("server answered no segment for its reaped connection with an RST")
	}
	checkReaped(t, c)
}

func TestRetryBudgetSpentUnderPartition(t *testing.T) {
	inj := fault.NewInjector(fault.Plan{Partitions: []fault.Partition{
		{Src: -1, Dst: -1, From: sim.Second, To: forever},
	}})
	c := newFaultyGigECluster(t, params.MTUEthernet, inj)
	var errs [2]error
	for i, name := range []string{"client", "server"} {
		c.eng.Spawn(name, func(p *sim.Proc) {
			var s *hostos.Socket
			if i == 0 {
				s = c.kernels[0].NewSocket(hostos.TCPSock)
				if err := s.Connect(p, inet.NodeAddr4(1), 5001); err != nil {
					t.Errorf("Connect: %v", err)
					return
				}
			} else {
				lst := c.kernels[1].NewSocket(hostos.TCPSock)
				lst.Listen(5001, 8)
				s = lst.Accept(p)
			}
			p.Sleep(2 * sim.Second)
			if err := s.Send(p, buf.Pattern(1000, byte(i))); err != nil {
				t.Errorf("%s Send: %v", name, err)
			}
			_, errs[i] = s.Recv(p, 1000)
		})
	}
	c.eng.Run()
	for i, k := range c.kernels {
		if !errors.Is(errs[i], hostos.ErrTimedOut) {
			t.Errorf("kernel %d: Recv = %v, want ErrTimedOut", i, errs[i])
		}
		if got := k.Net.Get("conn.retry-exceeded"); got != 1 {
			t.Errorf("kernel %d: conn.retry-exceeded = %d, want 1", i, got)
		}
		// One RTO retransmission per backed-off timeout within the budget.
		if got := k.Stats().Retransmits; got != params.TCPMaxRetries {
			t.Errorf("kernel %d: %d retransmits, want %d", i, got, params.TCPMaxRetries)
		}
	}
	checkReaped(t, c)
}

func TestCloseWakesBlockedReceiver(t *testing.T) {
	c := newGigECluster(t, params.MTUEthernet)
	var eofErr, closeErr error
	c.eng.Spawn("server", func(p *sim.Proc) {
		lst := c.kernels[1].NewSocket(hostos.TCPSock)
		lst.Listen(5001, 8)
		s := lst.Accept(p)
		_, eofErr = s.Recv(p, 100) // blocks until the client closes
		closeErr = s.Close(p)
	})
	c.eng.Spawn("client", func(p *sim.Proc) {
		s := c.kernels[0].NewSocket(hostos.TCPSock)
		if err := s.Connect(p, inet.NodeAddr4(1), 5001); err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		p.Sleep(sim.Second)
		s.Close(p)
	})
	c.eng.Run()
	if !errors.Is(eofErr, hostos.ErrConnClosed) {
		t.Fatalf("Recv blocked across the peer's Close = %v, want EOF", eofErr)
	}
	if closeErr != nil {
		t.Errorf("Close after EOF: %v", closeErr)
	}
	checkReaped(t, c)
}

// TestListenOnActivePortRefused: a port an active connection holds cannot
// be listened on.
func TestListenOnActivePortRefused(t *testing.T) {
	c := newGigECluster(t, params.MTUEthernet)
	var listenErr error
	c.eng.Spawn("server", func(p *sim.Proc) {
		lst := c.kernels[1].NewSocket(hostos.TCPSock)
		lst.Listen(5001, 8)
		lst.Accept(p)
	})
	c.eng.Spawn("client", func(p *sim.Proc) {
		s := c.kernels[0].NewSocket(hostos.TCPSock)
		if err := s.Connect(p, inet.NodeAddr4(1), 5001); err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		listenErr = c.kernels[0].NewSocket(hostos.TCPSock).Listen(s.LocalPort(), 8)
	})
	c.eng.Run()
	if !errors.Is(listenErr, hostos.ErrInUse) {
		t.Fatalf("Listen on a connected socket's port = %v, want ErrInUse", listenErr)
	}
}

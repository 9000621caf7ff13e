package qpipnic

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/buf"
	"repro/internal/inet"
	"repro/internal/sim"
	"repro/internal/verbs"
)

// srqPair builds an SRQ on the server NIC and parks nQPs server QPs
// attached to it on one listener, returning matching client QPs.
func srqPair(t *testing.T, c *cluster, srq *verbs.SRQ, port uint16, nQPs int) (clis, srvs []*verbs.QP, cliR, srvR *verbs.CQ) {
	t.Helper()
	srvS := verbs.NewCQ(c.nics[1], 4096)
	srvR = verbs.NewCQ(c.nics[1], 4096)
	cliS := verbs.NewCQ(c.nics[0], 4096)
	cliR = verbs.NewCQ(c.nics[0], 4096)
	lst, err := c.nics[1].Listen(port)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nQPs; i++ {
		srv, err := verbs.NewQP(c.nics[1], verbs.QPConfig{Transport: verbs.Reliable, SendCQ: srvS, RecvCQ: srvR, SendDepth: 64, SRQ: srq})
		if err != nil {
			t.Fatal(err)
		}
		if err := lst.Post(srv); err != nil {
			t.Fatal(err)
		}
		srvs = append(srvs, srv)
		cli, err := verbs.NewQP(c.nics[0], verbs.QPConfig{Transport: verbs.Reliable, SendCQ: cliS, RecvCQ: cliR, SendDepth: 64, RecvDepth: 64})
		if err != nil {
			t.Fatal(err)
		}
		clis = append(clis, cli)
	}
	return clis, srvs, cliR, srvR
}

// TestSRQDeliversAcrossQPs drives two connections into one shared pool
// and checks every message lands exactly once with pool accounting
// consistent.
func TestSRQDeliversAcrossQPs(t *testing.T) {
	c := newCluster(t, nil)
	srq, err := verbs.NewSRQ(c.nics[1], verbs.SRQConfig{Depth: 64})
	if err != nil {
		t.Fatal(err)
	}
	clis, _, _, srvR := srqPair(t, c, srq, 7000, 2)
	const msgs = 4
	got := map[uint32]int{}
	c.eng.Spawn("server", func(p *sim.Proc) {
		for i := 0; i < 16; i++ {
			if err := srq.PostRecv(p, verbs.RecvWR{ID: uint64(100 + i), Capacity: 4096}); err != nil {
				t.Errorf("SRQ PostRecv: %v", err)
			}
		}
		for i := 0; i < 2*msgs; i++ {
			comp := srvR.Wait(p)
			if comp.Status != verbs.StatusSuccess {
				t.Errorf("recv completion %d: %v", i, comp.Status)
			}
			got[comp.QPN]++
		}
	})
	for ci, cli := range clis {
		cli := cli
		c.eng.Spawn("client", func(p *sim.Proc) {
			if err := cli.Connect(p, inet.NodeAddr6(1), 7000); err != nil {
				t.Errorf("client %d connect: %v", ci, err)
				return
			}
			for m := 0; m < msgs; m++ {
				if err := cli.PostSend(p, verbs.SendWR{ID: uint64(m), Payload: buf.Virtual(1024)}); err != nil {
					t.Errorf("client %d send %d: %v", ci, m, err)
				}
			}
		})
	}
	c.eng.Run()
	total := 0
	for _, n := range got {
		total += n
	}
	if total != 2*msgs || len(got) != 2 {
		t.Fatalf("received %d messages over %d QPs, want %d over 2", total, len(got), 2*msgs)
	}
	if srq.Claims() != 2*msgs {
		t.Errorf("SRQ claims = %d, want %d", srq.Claims(), 2*msgs)
	}
	if srq.Posted() != 16-2*msgs {
		t.Errorf("pool left = %d, want %d", srq.Posted(), 16-2*msgs)
	}
	if fp := c.nics[1].SRAMFootprint(); fp <= 0 {
		t.Errorf("SRAMFootprint = %d", fp)
	}
}

// TestSRQBackpressureRepost starves the shared pool so concurrent senders
// overcommit it (records stash in SRAM, RNR), then reposts via the armed
// limit event and checks the stalled connections drain.
func TestSRQBackpressureRepost(t *testing.T) {
	c := newCluster(t, nil)
	srq, err := verbs.NewSRQ(c.nics[1], verbs.SRQConfig{Depth: 64, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	clis, _, _, srvR := srqPair(t, c, srq, 7000, 2)
	const msgs = 3 // per client; pool starts with only 2 buffers
	done := 0
	c.eng.Spawn("reposter", func(p *sim.Proc) {
		for done < 2*msgs {
			srq.WaitLimit(p)
			if _, err := srq.PostRecvN(p, []verbs.RecvWR{{ID: 900, Capacity: 4096}, {ID: 901, Capacity: 4096}}); err != nil {
				t.Errorf("repost: %v", err)
				return
			}
			if err := srq.ArmLimit(1); err != nil {
				t.Errorf("re-arm: %v", err)
				return
			}
		}
	})
	c.eng.Spawn("server", func(p *sim.Proc) {
		srq.PostRecv(p, verbs.RecvWR{ID: 1, Capacity: 4096})
		srq.PostRecv(p, verbs.RecvWR{ID: 2, Capacity: 4096})
		for done < 2*msgs {
			comp := srvR.Wait(p)
			if comp.Status != verbs.StatusSuccess {
				t.Errorf("recv: %v", comp.Status)
			}
			done++
		}
	})
	for ci, cli := range clis {
		cli := cli
		c.eng.Spawn("client", func(p *sim.Proc) {
			if err := cli.Connect(p, inet.NodeAddr6(1), 7000); err != nil {
				t.Errorf("client %d connect: %v", ci, err)
				return
			}
			for m := 0; m < msgs; m++ {
				if err := cli.PostSend(p, verbs.SendWR{ID: uint64(m), Payload: buf.Virtual(1024)}); err != nil {
					t.Errorf("client %d send %d: %v", ci, m, err)
				}
			}
		})
	}
	c.eng.Run()
	if done != 2*msgs {
		t.Fatalf("delivered %d, want %d", done, 2*msgs)
	}
	if srq.LimitEvents() == 0 {
		t.Error("limit event never fired under starvation")
	}
}

// TestCreateQPExhaustionTyped pins the typed capacity error: occupancy in
// the message, both sentinels matched, and the qp.exhausted counter.
func TestCreateQPExhaustionTyped(t *testing.T) {
	c := newCluster(t, func(i int, cfg *Config) { cfg.MaxQPs = 4 })
	cq := verbs.NewCQ(c.nics[0], 16)
	for i := 0; i < 4; i++ {
		if _, err := verbs.NewQP(c.nics[0], verbs.QPConfig{Transport: verbs.Reliable, SendCQ: cq, RecvCQ: cq}); err != nil {
			t.Fatal(err)
		}
	}
	_, err := verbs.NewQP(c.nics[0], verbs.QPConfig{Transport: verbs.Reliable, SendCQ: cq, RecvCQ: cq})
	if !errors.Is(err, verbs.ErrQPExhausted) {
		t.Fatalf("err = %v, want ErrQPExhausted", err)
	}
	if !errors.Is(err, verbs.ErrNoResources) {
		t.Error("typed error no longer matches ErrNoResources")
	}
	if !strings.Contains(err.Error(), "4/4") {
		t.Errorf("message %q lacks occupancy", err.Error())
	}
	if got := c.nics[0].Net.Get("qp.exhausted"); got != 1 {
		t.Errorf("qp.exhausted = %d, want 1", got)
	}
}

// TestQPNRecyclingUnderChurn creates and destroys QPs in a loop: the
// state table and QPN space must not grow with cumulative churn, and
// recycled QPNs must resolve to the new owner.
func TestQPNRecyclingUnderChurn(t *testing.T) {
	c := newCluster(t, nil)
	cq := verbs.NewCQ(c.nics[0], 16)
	firstQPNs := map[uint32]bool{}
	var lastQPN uint32
	for round := 0; round < 50; round++ {
		qp, err := verbs.NewQP(c.nics[0], verbs.QPConfig{Transport: verbs.Reliable, SendCQ: cq, RecvCQ: cq})
		if err != nil {
			t.Fatal(err)
		}
		if round == 0 {
			firstQPNs[qp.QPN] = true
		} else if !firstQPNs[qp.QPN] {
			t.Fatalf("round %d allocated fresh QPN %d instead of recycling", round, qp.QPN)
		}
		lastQPN = qp.QPN
		qp.Close()
	}
	if got := c.nics[0].Net.Get("qpn.recycled"); got != 49 {
		t.Errorf("qpn.recycled = %d, want 49", got)
	}
	if c.nics[0].LiveQPs() != 0 {
		t.Errorf("LiveQPs = %d after churn", c.nics[0].LiveQPs())
	}
	// The recycled QPN maps to its newest owner.
	qp, err := verbs.NewQP(c.nics[0], verbs.QPConfig{Transport: verbs.Reliable, SendCQ: cq, RecvCQ: cq})
	if err != nil {
		t.Fatal(err)
	}
	if qp.QPN != lastQPN {
		t.Errorf("QPN = %d, want recycled %d", qp.QPN, lastQPN)
	}
}

// TestSRQSurvivesNICCrash: the shared pool is host memory — an adapter
// crash fails the attached QPs and wipes the waiter bookkeeping, but the
// posted WRs remain claimable after restart and re-admission.
func TestSRQSurvivesNICCrash(t *testing.T) {
	c := newCluster(t, nil)
	srq, err := verbs.NewSRQ(c.nics[1], verbs.SRQConfig{Depth: 64})
	if err != nil {
		t.Fatal(err)
	}
	clis, srvs, _, srvR := srqPair(t, c, srq, 7000, 1)
	c.eng.Spawn("server", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			srq.PostRecv(p, verbs.RecvWR{ID: uint64(i), Capacity: 4096})
		}
		srvR.Wait(p)
		c.nics[1].Crash()
	})
	c.eng.Spawn("client", func(p *sim.Proc) {
		if err := cliConnect(p, clis[0]); err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		clis[0].PostSend(p, verbs.SendWR{ID: 1, Payload: buf.Virtual(1024)})
	})
	c.eng.Run()
	if srvs[0].State() != verbs.QPError {
		t.Fatalf("server QP state = %v after crash", srvs[0].State())
	}
	if srq.Posted() != 7 {
		t.Errorf("pool after crash = %d, want 7 (host memory survives)", srq.Posted())
	}
	// Restart and re-admit: the QP reattaches to the same pool.
	c.nics[1].Restart()
	c.eng.Spawn("recover", func(p *sim.Proc) {
		if err := srvs[0].ModifyQP(p, verbs.QPReset); err != nil {
			t.Errorf("reset after restart: %v", err)
		}
	})
	c.eng.Run()
	if got := c.nics[1].LiveQPs(); got != 1 {
		t.Errorf("LiveQPs after re-admission = %d, want 1", got)
	}
}

func cliConnect(p *sim.Proc, qp *verbs.QP) error {
	return qp.Connect(p, inet.NodeAddr6(1), 7000)
}

// TestGracefulCloseReapsConnState churns established connections through
// graceful close and checks the demux and port tables return to baseline
// on both adapters — before the reap path, the demux table and the client's
// ephemeral-port reservations grew forever.
func TestGracefulCloseReapsConnState(t *testing.T) {
	c := newCluster(t, nil)
	lst, err := c.nics[1].Listen(7000)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 5
	for round := 0; round < rounds; round++ {
		srvCQ := verbs.NewCQ(c.nics[1], 16)
		cliCQ := verbs.NewCQ(c.nics[0], 16)
		srv, err := verbs.NewQP(c.nics[1], verbs.QPConfig{Transport: verbs.Reliable, SendCQ: srvCQ, RecvCQ: srvCQ, SendDepth: 4, RecvDepth: 4})
		if err != nil {
			t.Fatal(err)
		}
		cli, err := verbs.NewQP(c.nics[0], verbs.QPConfig{Transport: verbs.Reliable, SendCQ: cliCQ, RecvCQ: cliCQ, SendDepth: 4, RecvDepth: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := lst.Post(srv); err != nil {
			t.Fatal(err)
		}
		c.eng.Spawn("server", func(p *sim.Proc) {
			if err := srv.WaitEstablished(p); err != nil {
				t.Errorf("round %d establish: %v", round, err)
				return
			}
			srv.PostRecv(p, verbs.RecvWR{ID: 1, Capacity: 4096})
			srvCQ.Wait(p)
			srv.Close()
		})
		c.eng.Spawn("client", func(p *sim.Proc) {
			if err := cliConnect(p, cli); err != nil {
				t.Errorf("round %d connect: %v", round, err)
				return
			}
			cli.PostSend(p, verbs.SendWR{ID: 1, Payload: buf.Virtual(1024)})
			cliCQ.Wait(p)
			cli.Close()
		})
		c.eng.Run()
	}
	if got := c.nics[0].LiveConns(); got != 0 {
		t.Errorf("client live conns = %d after churn, want 0", got)
	}
	if got := c.nics[1].LiveConns(); got != 0 {
		t.Errorf("server live conns = %d after churn, want 0", got)
	}
	if got := c.nics[0].tcp.Ports(); got != 0 {
		t.Errorf("client reserved ports = %d after churn, want 0 (ephemeral reservations leaked)", got)
	}
	// The listener's own reservation must survive its children.
	if got := c.nics[1].tcp.Ports(); got != 1 {
		t.Errorf("server reserved ports = %d after churn, want 1 (the listener)", got)
	}
	if got := c.nics[0].LiveQPs(); got != 0 {
		t.Errorf("client LiveQPs = %d after churn", got)
	}
}

// A steadily starved pool parks and drains forever without once emptying
// its waiter FIFO. The FIFO must reuse its backing array — bounded by a
// small multiple of the QP count, which the srqWait flag makes the bound
// on live entries — and hand waiters back in exactly park order.
func TestSRQWaiterFIFOBoundedUnderPartialDrain(t *testing.T) {
	const qps = 64
	pool := make([]*qpState, qps)
	for i := range pool {
		pool[i] = &qpState{}
	}
	ss := &srqState{}
	var model []*qpState // reference FIFO: plain append / reslice
	parkNext, rnd := 0, uint64(1)
	for cycle := 0; cycle < 100_000; cycle++ {
		rnd = rnd*6364136223846793005 + 1442695040888963407
		// Park a few idle connections (a parked one is held off by its
		// srqWait flag, as in enqueueSRQWaiter), always leaving room.
		for k := int(rnd>>60) + 1; k > 0 && len(model) < qps; k-- {
			qs := pool[parkNext%qps]
			parkNext++
			if qs.srqWait {
				continue
			}
			qs.srqWait = true
			ss.waiters.Push(qs)
			model = append(model, qs)
		}
		// Drain some, never all.
		for k := int(rnd>>56&7) + 1; k > 0 && len(model) > 1; k-- {
			got, _ := ss.waiters.Pop()
			if got != model[0] {
				t.Fatalf("cycle %d: drain order diverged from park order", cycle)
			}
			got.srqWait = false
			model = model[1:]
		}
		if ss.waiters.Len() != len(model) {
			t.Fatalf("cycle %d: %d parked, want %d", cycle, ss.waiters.Len(), len(model))
		}
		if ss.waiters.Len() == 0 {
			t.Fatalf("cycle %d: FIFO drained fully; the test must keep it starved", cycle)
		}
	}
	if c := ss.waiters.Cap(); c > 4*qps {
		t.Errorf("waiter FIFO backing array grew to %d entries for %d QPs, want <= %d", c, qps, 4*qps)
	}
}

// TestRNR drives one receiver-not-ready scenario through both receive
// models on one path: a QP's own pool and a shared SRQ.
//   - The client posts before any receive exists: the closed window holds
//     every record at the sender, so nothing arrives or stashes.
//   - One large receive opens a window wider than the WRs behind it: the
//     first record places, the rest stall in adapter SRAM (rx.rnr and
//     conn.rnr count it).
//   - A repost drains the stalled records in order.
//   - The adapter crashes with a record parked, restarts, and re-admits
//     the QP: a repost then reaches only the re-admitted state, never a
//     pre-crash waiter.
func TestRNR(t *testing.T) {
	// A large record then two small ones: the small ones reach the
	// receiver while the first is still being placed, before its
	// completion re-derives the window from the emptied pool.
	sizes := [...]int{12 << 10, 64, 64}
	for _, tc := range []struct {
		name   string
		shared bool
	}{{"owned", false}, {"shared", true}} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, nil)
			nic := c.nics[1]
			var srq *verbs.SRQ
			if tc.shared {
				var err error
				if srq, err = verbs.NewSRQ(nic, verbs.SRQConfig{Depth: 16}); err != nil {
					t.Fatal(err)
				}
			}
			clis, srvs, _, srvR := srqPair(t, c, srq, 7000, 1)
			cli, srv := clis[0], srvs[0]
			pool := srv.SRQ()
			if pool.Owner() == nil != tc.shared {
				t.Fatalf("pool owner %v for the %s case", pool.Owner(), tc.name)
			}
			post := func(p *sim.Proc, id uint64, capacity int) {
				t.Helper()
				if err := pool.PostRecv(p, verbs.RecvWR{ID: id, Capacity: capacity}); err != nil {
					t.Errorf("post WR %d: %v", id, err)
				}
			}
			expect := func(p *sim.Proc, id uint64, seed byte) {
				t.Helper()
				comp := srvR.Wait(p)
				if comp.Status != verbs.StatusSuccess || comp.WRID != id || !buf.Equal(comp.Payload, buf.Pattern(sizes[seed-1], seed)) {
					t.Errorf("completion %+v, want WR %d carrying record %d", comp, id, seed)
				}
			}
			var stale *qpState
			c.eng.Spawn("client", func(p *sim.Proc) {
				if err := cliConnect(p, cli); err != nil {
					t.Errorf("connect: %v", err)
					return
				}
				for i := byte(1); i <= 3; i++ {
					if err := cli.PostSend(p, verbs.SendWR{ID: uint64(i), Payload: buf.Pattern(sizes[i-1], i)}); err != nil {
						t.Errorf("send %d: %v", i, err)
					}
				}
			})
			c.eng.Spawn("server", func(p *sim.Proc) {
				if err := srv.WaitEstablished(p); err != nil {
					t.Errorf("establish: %v", err)
					return
				}
				p.Sleep(2 * sim.Millisecond)
				if nic.Stats().StashedRecords != 0 || srvR.Len() != 0 {
					t.Errorf("records reached the receiver (%d stashed, %d completed) with no WR posted",
						nic.Stats().StashedRecords, srvR.Len())
				}
				post(p, 1, sizes[0]+sizes[1]+sizes[2])
				expect(p, 1, 1)
				p.Sleep(sim.Millisecond)
				var connRNR uint64
				for _, cs := range nic.DebugConnStats() {
					connRNR += cs.RNR
				}
				if nic.Net.Get("rx.rnr") == 0 || connRNR == 0 {
					t.Errorf("rx.rnr = %d, conn.rnr = %d, want both > 0",
						nic.Net.Get("rx.rnr"), connRNR)
				}
				post(p, 2, sizes[1])
				expect(p, 2, 2)
				p.Sleep(sim.Millisecond)
				stale = nic.qps.get(srv.QPN)
				if stale.stash.Len() != 1 {
					t.Errorf("%d records parked before the crash, want 1", stale.stash.Len())
				}
				if stale.srqWait != tc.shared || nic.SRQStates() != len(nic.srqs) || (nic.SRQStates() == 1) != tc.shared {
					t.Errorf("parked on a waiter list: %v (%d pool states), want %v", stale.srqWait, nic.SRQStates(), tc.shared)
				}
				nic.Crash()
			})
			// Bounded: a connection whose window never opens would keep
			// the peer probing forever.
			c.eng.RunFor(sim.Second)
			if stale == nil || srv.State() != verbs.QPError || !nic.Down() {
				t.Fatalf("server QP %v after the crash (adapter down: %v)", srv.State(), nic.Down())
			}
			if nic.SRQStates() != 0 {
				t.Errorf("%d pool states survived the crash", nic.SRQStates())
			}
			// Give the pre-crash state a record a stray drain would place.
			stale.pushStash(buf.Pattern(sizes[2], 9))
			nic.Restart()
			if nic.Down() || nic.BootEpoch() != 2 {
				t.Fatalf("restart left the adapter down=%v at epoch %d", nic.Down(), nic.BootEpoch())
			}
			c.eng.Spawn("recover", func(p *sim.Proc) {
				if err := srv.ModifyQP(p, verbs.QPReset); err != nil {
					t.Errorf("re-admit: %v", err)
				}
				post(p, 3, sizes[2])
			})
			c.eng.Run()
			if qs := nic.qps.get(srv.QPN); qs == nil || qs == stale {
				t.Fatalf("QP not re-admitted with fresh state")
			}
			if stale.stash.Len() != 1 || stale.srqWait != tc.shared {
				t.Errorf("the repost touched the pre-crash state (stash %d, parked %v)", stale.stash.Len(), stale.srqWait)
			}
			if pool.Posted() != 1 || srvR.Len() != 0 {
				t.Errorf("repost claimed: %d WRs posted, %d completions, want 1, 0", pool.Posted(), srvR.Len())
			}
		})
	}
}

// TestPrivateQPsRegisterNoPoolState: incast-scale private QPs on one
// adapter, each with a posted receive, leave the firmware's pool table
// empty — an owned pool resolves through its QP, so setup stays linear.
func TestPrivateQPsRegisterNoPoolState(t *testing.T) {
	const qps = 8192
	c := newCluster(t, func(_ int, cfg *Config) { cfg.MaxQPs = qps })
	cq := verbs.NewCQ(c.nics[0], 16)
	all := make([]*verbs.QP, qps)
	for i := range all {
		qp, err := verbs.NewQP(c.nics[0], verbs.QPConfig{Transport: verbs.Reliable, SendCQ: cq, RecvCQ: cq, RecvDepth: 1})
		if err != nil {
			t.Fatal(err)
		}
		all[i] = qp
	}
	c.eng.Spawn("post", func(p *sim.Proc) {
		for _, qp := range all {
			if err := qp.PostRecv(p, verbs.RecvWR{Capacity: 64}); err != nil {
				t.Fatal(err)
			}
		}
	})
	c.eng.Run()
	if n := c.nics[0].LiveQPs(); n != qps {
		t.Fatalf("LiveQPs = %d, want %d", n, qps)
	}
	if n := c.nics[0].SRQStates(); n != 0 {
		t.Errorf("%d private QPs registered %d adapter-wide pool states, want 0", qps, n)
	}
}

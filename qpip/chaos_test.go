package qpip_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/buf"
	"repro/qpip"
)

// chaosResult is everything one chaos run produces that must be identical
// across two runs of the same seed.
type chaosResult struct {
	trace    string    // injector event log
	endTime  qpip.Time // simulation end
	received []byte    // server-side payload bytes, in delivery order
	statuses string    // per-WR completion statuses, in completion order
}

// runChaosTransfer pushes msgs records of msgLen bytes through a reliable
// QP pair while the fabric injects the seeded plan, and asserts the
// DESIGN §8 invariants: every byte arrives in order exactly once, every
// posted WR completes exactly once, and the simulation drains.
func runChaosTransfer(t *testing.T, seed uint64, msgs, msgLen int) chaosResult {
	t.Helper()
	return runChaosTransferOn(t, qpip.NewQPIPCluster(2), seed, msgs, msgLen)
}

// runChaosTransferOn is runChaosTransfer on a caller-built two-node
// cluster, for runs that vary the node configuration.
func runChaosTransferOn(t *testing.T, c *qpip.Cluster, seed uint64, msgs, msgLen int) chaosResult {
	t.Helper()
	inj := c.InjectFaults(qpip.FaultPlan{
		Seed:          seed,
		DropProb:      0.03,
		CorruptProb:   0.02,
		DupProb:       0.03,
		DelayProb:     0.05,
		MaxExtraDelay: 20_000, // 20 us of switch jitter
		SkipFirst:     8,      // spare the handshake; the bulk takes the abuse
	})

	var res chaosResult
	sendCount := make(map[uint64]int)
	recvCount := make(map[uint64]int)

	c.SpawnOn(1, "server", func(p *qpip.Proc) {
		qp, _, rcq, err := qpip.NewReliableQP(c.Nodes[1], 64)
		if err != nil {
			t.Errorf("server QP: %v", err)
			return
		}
		lst, err := c.Nodes[1].QPIP.Listen(7000)
		if err != nil {
			t.Errorf("Listen: %v", err)
			return
		}
		lst.Post(qp)
		if err := qp.WaitEstablished(p); err != nil {
			t.Errorf("server establish: %v", err)
			return
		}
		for i := 0; i < msgs; i++ {
			if err := qp.PostRecv(p, qpip.RecvWR{ID: uint64(i), Capacity: msgLen}); err != nil {
				t.Errorf("PostRecv %d: %v", i, err)
				return
			}
		}
		for i := 0; i < msgs; i++ {
			comp := rcq.Wait(p)
			recvCount[comp.WRID]++
			res.statuses += fmt.Sprintf("r%d=%v ", comp.WRID, comp.Status)
			if comp.Status != qpip.StatusSuccess {
				t.Errorf("recv WR %d completed %v", comp.WRID, comp.Status)
				return
			}
			res.received = append(res.received, comp.Payload.Data()...)
		}
	})
	c.SpawnOn(0, "client", func(p *qpip.Proc) {
		qp, scq, _, err := qpip.NewReliableQP(c.Nodes[0], 64)
		if err != nil {
			t.Errorf("client QP: %v", err)
			return
		}
		if err := qp.Connect(p, c.Nodes[1].Addr6, 7000); err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		inFlight := 0
		for i := 0; i < msgs; i++ {
			for inFlight >= 32 {
				comp := scq.Wait(p)
				sendCount[comp.WRID]++
				res.statuses += fmt.Sprintf("s%d=%v ", comp.WRID, comp.Status)
				if comp.Status != qpip.StatusSuccess {
					t.Errorf("send WR %d completed %v", comp.WRID, comp.Status)
					return
				}
				inFlight--
			}
			if err := qp.PostSend(p, qpip.SendWR{ID: uint64(i), Payload: buf.Pattern(msgLen, byte(i))}); err != nil {
				t.Errorf("PostSend %d: %v", i, err)
				return
			}
			inFlight++
		}
		for inFlight > 0 {
			comp := scq.Wait(p)
			sendCount[comp.WRID]++
			res.statuses += fmt.Sprintf("s%d=%v ", comp.WRID, comp.Status)
			if comp.Status != qpip.StatusSuccess {
				t.Errorf("send WR %d completed %v", comp.WRID, comp.Status)
				return
			}
			inFlight--
		}
	})
	c.Run() // must drain: a hang here is a deadline-less deadlock
	res.trace = inj.TraceString()
	res.endTime = c.EndTime()

	// The plan must actually have bitten.
	st := inj.Stats()
	if st.Drops == 0 || st.Corrupts == 0 || st.Dups == 0 {
		t.Fatalf("plan injected too little: %+v", st)
	}
	// Every byte, in order, exactly once.
	var want []byte
	for i := 0; i < msgs; i++ {
		want = append(want, buf.Pattern(msgLen, byte(i)).Data()...)
	}
	if !bytes.Equal(res.received, want) {
		t.Fatalf("delivered bytes differ: got %d bytes, want %d", len(res.received), len(want))
	}
	// Every WR completed exactly once on both sides.
	for i := 0; i < msgs; i++ {
		if n := sendCount[uint64(i)]; n != 1 {
			t.Fatalf("send WR %d completed %d times", i, n)
		}
		if n := recvCount[uint64(i)]; n != 1 {
			t.Fatalf("recv WR %d completed %d times", i, n)
		}
	}
	// Corruption was caught by real checksums, not delivered.
	if crpt := c.Nodes[0].QPIP.Net.Get("rx.corrupt") + c.Nodes[1].QPIP.Net.Get("rx.corrupt"); crpt == 0 {
		t.Error("frames were corrupted but no checksum error was counted")
	}
	return res
}

// TestChaosTransferInvariants is the tentpole property test: a seeded
// fault plan with drop + corruption + duplication must not break
// exactly-once in-order delivery or exactly-once WR completion, and the
// same seed must reproduce the identical fault trace and end time.
func TestChaosTransferInvariants(t *testing.T) {
	a := runChaosTransfer(t, 0xC0FFEE, 48, 8192)
	if t.Failed() {
		return
	}
	b := runChaosTransfer(t, 0xC0FFEE, 48, 8192)
	if a.trace != b.trace {
		t.Error("same seed produced different fault traces")
	}
	if a.endTime != b.endTime {
		t.Errorf("same seed produced different end times: %v vs %v", a.endTime, b.endTime)
	}
	if a.statuses != b.statuses {
		t.Error("same seed produced different completion sequences")
	}
	if !bytes.Equal(a.received, b.received) {
		t.Error("same seed produced different delivered bytes")
	}
	// A different seed must produce a different fault trace (the seed is
	// actually driving the decisions).
	c := runChaosTransfer(t, 0xBEEF, 48, 8192)
	if c.trace == a.trace {
		t.Error("different seeds produced identical fault traces")
	}
}

// TestConnectToBlackhole: with every frame dropped, an active open fails
// within the SYN retry budget — bounded, no hang, QP in error state.
func TestConnectToBlackhole(t *testing.T) {
	c := qpip.NewQPIPCluster(2)
	c.InjectFaults(qpip.FaultPlan{DropProb: 1})
	var connErr error
	var failedAt qpip.Time
	c.SpawnOn(0, "client", func(p *qpip.Proc) {
		qp, _, _, err := qpip.NewReliableQP(c.Nodes[0], 16)
		if err != nil {
			t.Errorf("NewReliableQP: %v", err)
			return
		}
		connErr = qp.Connect(p, c.Nodes[1].Addr6, 7000)
		failedAt = p.Now()
		if qp.State() != qpip.QPError {
			t.Errorf("QP state = %v after failed connect, want error state", qp.State())
		}
	})
	c.Run()
	if !errors.Is(connErr, qpip.ErrRetryExceeded) {
		t.Fatalf("Connect = %v, want ErrRetryExceeded", connErr)
	}
	// SynMaxRetries=5 from a 3 s initial RTO: 3+6+12+24+48+96 = 189 s.
	if failedAt > 200*1_000_000_000 {
		t.Errorf("connect failed at %v, want within the ~189 s SYN budget", failedAt)
	}
}

// TestConnectRefusedByRST: a SYN to a port nobody listens on draws an RST
// and fails immediately — no retry budget burned against a silent drop.
func TestConnectRefusedByRST(t *testing.T) {
	c := qpip.NewQPIPCluster(2)
	var connErr error
	var failedAt qpip.Time
	c.SpawnOn(0, "client", func(p *qpip.Proc) {
		qp, _, _, err := qpip.NewReliableQP(c.Nodes[0], 16)
		if err != nil {
			t.Errorf("NewReliableQP: %v", err)
			return
		}
		connErr = qp.Connect(p, c.Nodes[1].Addr6, 4242) // nobody listens
		failedAt = p.Now()
	})
	c.Run()
	if !errors.Is(connErr, qpip.ErrConnRefused) {
		t.Fatalf("Connect = %v, want ErrConnRefused", connErr)
	}
	if failedAt > 1_000_000_000 {
		t.Errorf("refusal took %v, want well under a second (RST, not timeout)", failedAt)
	}
}

// TestRetryExceededFlushesOutstandingWRs: a link that goes down after
// establishment must fail the QP with StatusRetryExceeded completions for
// every outstanding WR — and sends on an unrelated QP sharing the same
// CQs must stay isolated (completions carry the right QPN).
func TestRetryExceededFlushesOutstandingWRs(t *testing.T) {
	c := qpip.NewCluster(3, qpip.NodeConfig{QPIP: true})
	// Node 2's link goes down at t=50ms and stays down.
	deadPort := c.Nodes[2].QPIP.Attachment()
	c.InjectFaults(qpip.FaultPlan{
		Flaps: []qpip.Flap{{Port: deadPort, From: 50_000_000, To: 1 << 62}},
	})

	scq := qpip.NewCQ(c.Nodes[0], 64)
	rcq := qpip.NewCQ(c.Nodes[0], 64)
	mk := func() *qpip.QP {
		qp, err := qpip.NewQPWith(c.Nodes[0], qpip.QPConfig{
			Transport: qpip.Reliable, SendCQ: scq, RecvCQ: rcq,
			SendDepth: 16, RecvDepth: 16,
		})
		if err != nil {
			t.Fatalf("NewQPWith: %v", err)
		}
		return qp
	}
	qpA, qpB := mk(), mk() // A -> node1 (healthy), B -> node2 (doomed)

	serve := func(node int, port uint16, nmsg int) {
		c.SpawnOn(node, fmt.Sprintf("server%d", node), func(p *qpip.Proc) {
			qp, _, rcq, err := qpip.NewReliableQP(c.Nodes[node], 32)
			if err != nil {
				t.Errorf("server %d: %v", node, err)
				return
			}
			lst, err := c.Nodes[node].QPIP.Listen(port)
			if err != nil {
				t.Errorf("Listen %d: %v", node, err)
				return
			}
			lst.Post(qp)
			if err := qp.WaitEstablished(p); err != nil {
				return
			}
			for i := 0; i < nmsg; i++ {
				qp.PostRecv(p, qpip.RecvWR{ID: uint64(i), Capacity: 4096})
			}
			// Reap whatever arrives; the doomed server hears nothing.
			for i := 0; i < nmsg; i++ {
				if comp := rcq.Wait(p); comp.Status != qpip.StatusSuccess {
					return
				}
			}
		})
	}
	const nmsg = 8
	serve(1, 7001, nmsg)
	serve(2, 7002, nmsg)

	// WRID ranges are disjoint so cross-QP completion mixups are visible.
	const baseA, baseB = 1000, 2000
	compA := make(map[uint64]int)
	compB := make(map[uint64]int)
	var statusB []string

	c.SpawnOn(0, "client", func(p *qpip.Proc) {
		if err := qpA.Connect(p, c.Nodes[1].Addr6, 7001); err != nil {
			t.Errorf("connect A: %v", err)
			return
		}
		if err := qpB.Connect(p, c.Nodes[2].Addr6, 7002); err != nil {
			t.Errorf("connect B: %v", err)
			return
		}
		// Sleep past the flap start so B's sends face a dead link.
		p.Sleep(60_000_000)
		for i := 0; i < nmsg; i++ {
			if err := qpA.PostSend(p, qpip.SendWR{ID: baseA + uint64(i), Payload: buf.Pattern(2048, byte(i))}); err != nil {
				t.Errorf("post A %d: %v", i, err)
			}
			if err := qpB.PostSend(p, qpip.SendWR{ID: baseB + uint64(i), Payload: buf.Pattern(2048, byte(i))}); err != nil {
				t.Errorf("post B %d: %v", i, err)
			}
		}
		for seen := 0; seen < 2*nmsg; seen++ {
			comp := scq.Wait(p)
			switch {
			case comp.WRID >= baseB:
				compB[comp.WRID]++
				statusB = append(statusB, comp.Status.String())
				if comp.QPN != qpB.QPN {
					t.Errorf("WR %d completed on QPN %d, posted on %d", comp.WRID, comp.QPN, qpB.QPN)
				}
			case comp.WRID >= baseA:
				compA[comp.WRID]++
				if comp.QPN != qpA.QPN {
					t.Errorf("WR %d completed on QPN %d, posted on %d", comp.WRID, comp.QPN, qpA.QPN)
				}
				if comp.Status != qpip.StatusSuccess {
					t.Errorf("healthy QP send %d completed %v", comp.WRID, comp.Status)
				}
			default:
				t.Errorf("unknown completion WRID %d", comp.WRID)
			}
		}
	})
	c.Run() // must drain — retry exhaustion, not an infinite retransmit loop

	for i := uint64(0); i < nmsg; i++ {
		if n := compA[baseA+i]; n != 1 {
			t.Errorf("A WR %d completed %d times, want 1", i, n)
		}
		if n := compB[baseB+i]; n != 1 {
			t.Errorf("B WR %d completed %d times, want 1", i, n)
		}
	}
	for i, s := range statusB {
		if s != "retry-exceeded" {
			t.Errorf("doomed QP completion %d status %q, want retry-exceeded", i, s)
		}
	}
	if qpB.State() != qpip.QPError {
		t.Errorf("doomed QP state = %v, want error", qpB.State())
	}
	if !errors.Is(qpB.Err(), qpip.ErrRetryExceeded) {
		t.Errorf("doomed QP err = %v, want ErrRetryExceeded", qpB.Err())
	}
	if n := c.Nodes[0].QPIP.Net.Get("conn.retry-exceeded"); n != 1 {
		t.Errorf("conn.retry-exceeded = %d, want 1", n)
	}
}

// TestCreateQPRefusedOnStateTableExhaustion: the adapter's SRAM-resident
// QP table is finite; creation beyond it refuses with ErrNoResources
// instead of overcommitting.
func TestCreateQPRefusedOnStateTableExhaustion(t *testing.T) {
	c := qpip.NewCluster(1, qpip.NodeConfig{QPIP: true, QPIPMaxQPs: 4})
	for i := 0; i < 4; i++ {
		if _, _, _, err := qpip.NewReliableQP(c.Nodes[0], 4); err != nil {
			t.Fatalf("QP %d refused below the limit: %v", i, err)
		}
	}
	if _, _, _, err := qpip.NewReliableQP(c.Nodes[0], 4); !errors.Is(err, qpip.ErrNoResources) {
		t.Fatalf("QP beyond MaxQPs = %v, want ErrNoResources", err)
	}
	if n := c.Nodes[0].QPIP.Net.Get("qp.exhausted"); n != 1 {
		t.Errorf("qp.exhausted = %d, want 1", n)
	}
}

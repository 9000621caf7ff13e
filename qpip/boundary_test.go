package qpip_test

import (
	"testing"

	"repro/internal/sim"
	"repro/qpip"
)

// coalescedTransfer is a windowed 32-message transfer on a cluster whose
// CQ event lines are paced (nonzero coalescing delay) — the configuration
// where wakes are deferred and batched. With chaos set it runs under
// runChaosTransfer's fault plan for seed. It returns the fault trace and
// end time, and the time the server reaped its last completion.
func coalescedTransfer(t *testing.T, seed uint64, chaos bool, delay qpip.Time) (res chaosResult, lastRecv qpip.Time) {
	t.Helper()
	const msgs, msgLen = 32, 4096
	c := qpip.NewCluster(2, qpip.NodeConfig{
		QPIP:                true,
		QPIPCQCoalescePkts:  16,
		QPIPCQCoalesceDelay: delay,
	})
	var inj *qpip.FaultInjector
	if chaos {
		inj = c.InjectFaults(qpip.FaultPlan{
			Seed: seed, DropProb: 0.03, CorruptProb: 0.02, DupProb: 0.03,
			DelayProb: 0.05, MaxExtraDelay: 20_000, SkipFirst: 8,
		})
	}
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
			t.Errorf("establish: %v", err)
			return
		}
		rwrs := make([]qpip.RecvWR, msgs)
		for i := range rwrs {
			rwrs[i] = qpip.RecvWR{ID: uint64(i), Capacity: msgLen}
		}
		if _, err := qp.PostRecvN(p, rwrs); err != nil {
			t.Errorf("PostRecvN: %v", err)
			return
		}
		comps := make([]qpip.Completion, msgs)
		for got := 0; got < msgs; {
			rcq.Wait(p)
			got++
			n := rcq.PollN(p, comps[:msgs-got])
			got += n
		}
		lastRecv = p.Now()
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
		wrs := make([]qpip.SendWR, msgs)
		for i := range wrs {
			wrs[i] = qpip.SendWR{ID: uint64(i), Payload: qpip.VirtualMessage(msgLen)}
		}
		sent := 0
		for sent < msgs {
			n, err := qp.PostSendN(p, wrs[sent:])
			if err != nil {
				t.Errorf("PostSendN: %v", err)
				return
			}
			sent += n
		}
		for got := 0; got < msgs; got++ {
			scq.Wait(p)
		}
	})
	c.Run()
	if inj != nil {
		res.trace = inj.TraceString()
	}
	res.endTime = c.EndTime()
	return res, lastRecv
}

// TestCoalescedWakesDeterministic: with a nonzero coalescing delay the
// simulated world differs from immediate-wake timing — but the same seed
// must still reproduce the identical fault trace and end time under chaos,
// and the delay must actually move simulated time (the knob is live).
// Liveness is checked fault-free: under the chaos plan the transfer is
// bound by retransmit timeouts, which hide a sub-millisecond wake delay.
func TestCoalescedWakesDeterministic(t *testing.T) {
	const seed = 0xC0FFEE
	delay := 100 * sim.Microsecond
	a, _ := coalescedTransfer(t, seed, true, delay)
	if t.Failed() {
		return
	}
	b, _ := coalescedTransfer(t, seed, true, delay)
	if a.trace != b.trace {
		t.Error("same seed produced different fault traces under coalesced wakes")
	}
	if a.endTime != b.endTime {
		t.Errorf("same seed produced different end times: %v vs %v", a.endTime, b.endTime)
	}
	var prev qpip.Time
	for i, d := range []qpip.Time{0, delay, 6 * delay} {
		_, last := coalescedTransfer(t, seed, false, d)
		if i > 0 && last <= prev {
			t.Errorf("coalescing delay %v: server's last completion at %v, not after %v at the smaller delay", d, last, prev)
		}
		prev = last
	}
}

// TestVectoredDoorbellBackpressure: a send burst far wider than the
// doorbell FIFO must not lose work requests — the batch verbs ring one
// vectored token per call, so even a 256-WR storm through a small FIFO
// stays within capacity and every WR completes.
func TestVectoredDoorbellBackpressure(t *testing.T) {
	c := qpip.NewQPIPCluster(2)
	const msgs = 256
	done := 0
	c.SpawnOn(1, "server", func(p *qpip.Proc) {
		qp, _, rcq, err := qpip.NewReliableQP(c.Nodes[1], msgs)
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
			t.Errorf("establish: %v", err)
			return
		}
		rwrs := make([]qpip.RecvWR, msgs)
		for i := range rwrs {
			rwrs[i] = qpip.RecvWR{ID: uint64(i), Capacity: 64}
		}
		if _, err := qp.PostRecvN(p, rwrs); err != nil {
			t.Errorf("PostRecvN: %v", err)
			return
		}
		for i := 0; i < msgs; i++ {
			rcq.Wait(p)
			done++
		}
	})
	c.SpawnOn(0, "client", func(p *qpip.Proc) {
		qp, scq, _, err := qpip.NewReliableQP(c.Nodes[0], msgs)
		if err != nil {
			t.Errorf("client QP: %v", err)
			return
		}
		if err := qp.Connect(p, c.Nodes[1].Addr6, 7000); err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		wrs := make([]qpip.SendWR, msgs)
		for i := range wrs {
			wrs[i] = qpip.SendWR{ID: uint64(i), Payload: qpip.VirtualMessage(32)}
		}
		sent := 0
		for sent < msgs {
			n, err := qp.PostSendN(p, wrs[sent:])
			if err != nil {
				t.Errorf("PostSendN: %v", err)
				return
			}
			sent += n
		}
		for i := 0; i < msgs; i++ {
			scq.Wait(p)
		}
	})
	c.Run()
	if done != msgs {
		t.Fatalf("delivered %d of %d messages", done, msgs)
	}
	if drops := c.Nodes[0].QPIP.Net.Get("db.drop"); drops != 0 {
		t.Errorf("db.drop = %d: vectored doorbells overran the FIFO", drops)
	}
}

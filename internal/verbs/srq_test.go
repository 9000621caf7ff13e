package verbs

import (
	"errors"
	"testing"

	"repro/internal/inet"
	"repro/internal/params"
	"repro/internal/sim"
)

func mkSRQQP(t *testing.T, d *fakeDevice, srq *SRQ) (*QP, *CQ, *CQ) {
	t.Helper()
	scq, rcq := NewCQ(d, 16), NewCQ(d, 16)
	qp, err := NewQP(d, QPConfig{Transport: Reliable, SendCQ: scq, RecvCQ: rcq, SendDepth: 8, SRQ: srq})
	if err != nil {
		t.Fatal(err)
	}
	return qp, scq, rcq
}

func TestSRQSharedFIFOClaim(t *testing.T) {
	eng := sim.NewEngine()
	d := newFake(eng)
	srq, err := NewSRQ(d, SRQConfig{Depth: 8})
	if err != nil {
		t.Fatal(err)
	}
	qp1, _, _ := mkSRQQP(t, d, srq)
	qp2, _, _ := mkSRQQP(t, d, srq)
	if srq.Attached() != 2 {
		t.Fatalf("Attached = %d, want 2", srq.Attached())
	}
	eng.Spawn("app", func(p *sim.Proc) {
		for i := uint64(1); i <= 3; i++ {
			if err := srq.PostRecv(p, RecvWR{ID: i, Capacity: 100}); err != nil {
				t.Fatal(err)
			}
		}
		// Both QPs advertise the shared pool as their receive window.
		if qp1.PostedRecvBytes() != 300 || qp2.PostedRecvBytes() != 300 {
			t.Errorf("windows = %d, %d, want 300, 300", qp1.PostedRecvBytes(), qp2.PostedRecvBytes())
		}
		// Claims resolve FIFO over the pool regardless of claiming QP.
		wr, ok := qp2.TakeRecvWR()
		if !ok || wr.ID != 1 {
			t.Fatalf("qp2 claim = %+v, %v, want ID 1", wr, ok)
		}
		wr, ok = qp1.TakeRecvWR()
		if !ok || wr.ID != 2 {
			t.Fatalf("qp1 claim = %+v, %v, want ID 2", wr, ok)
		}
		if qp1.OutstandingRecv() != 1 || qp2.OutstandingRecv() != 1 {
			t.Errorf("outstanding = %d, %d, want 1, 1", qp1.OutstandingRecv(), qp2.OutstandingRecv())
		}
		if srq.Posted() != 1 || srq.PostedBytes() != 100 {
			t.Errorf("pool = %d WRs / %d bytes, want 1 / 100", srq.Posted(), srq.PostedBytes())
		}
		if srq.Claims() != 2 {
			t.Errorf("Claims = %d, want 2", srq.Claims())
		}
	})
	eng.Run()
	if d.recvPosts != 3 || d.vectoredRecv != 3 {
		t.Errorf("device SRQ notifications = %d/%d, want 3/3", d.recvPosts, d.vectoredRecv)
	}
}

func TestSRQAttachedQPRefusesPrivatePost(t *testing.T) {
	eng := sim.NewEngine()
	d := newFake(eng)
	srq, _ := NewSRQ(d, SRQConfig{Depth: 8})
	qp, _, _ := mkSRQQP(t, d, srq)
	eng.Spawn("app", func(p *sim.Proc) {
		if err := qp.PostRecv(p, RecvWR{ID: 1, Capacity: 64}); !errors.Is(err, ErrSRQAttached) {
			t.Errorf("PostRecv = %v, want ErrSRQAttached", err)
		}
		if _, err := qp.PostRecvN(p, []RecvWR{{ID: 1, Capacity: 64}}); !errors.Is(err, ErrSRQAttached) {
			t.Errorf("PostRecvN = %v, want ErrSRQAttached", err)
		}
	})
	eng.Run()
}

func TestSRQLimitEventFiresOnceAtWatermark(t *testing.T) {
	eng := sim.NewEngine()
	d := newFake(eng)
	srq, _ := NewSRQ(d, SRQConfig{Depth: 8, Limit: 2})
	qp, _, _ := mkSRQQP(t, d, srq)
	var woke sim.Time
	eng.Spawn("reposter", func(p *sim.Proc) {
		srq.WaitLimit(p)
		woke = p.Now()
	})
	eng.Spawn("app", func(p *sim.Proc) {
		for i := uint64(1); i <= 4; i++ {
			if err := srq.PostRecv(p, RecvWR{ID: i, Capacity: 100}); err != nil {
				t.Fatal(err)
			}
		}
		// 4 posted, limit 2: claims at 4→3 and 3→2 leave >=2, no event;
		// the 2→1 crossing fires it exactly once.
		qp.TakeRecvWR()
		qp.TakeRecvWR()
		if srq.LimitEvents() != 0 {
			t.Fatalf("limit fired above watermark (events=%d)", srq.LimitEvents())
		}
		qp.TakeRecvWR()
		if srq.LimitEvents() != 1 {
			t.Fatalf("LimitEvents = %d, want 1", srq.LimitEvents())
		}
		// Unarmed now: further claims do not re-fire.
		qp.TakeRecvWR()
		if srq.LimitEvents() != 1 {
			t.Fatalf("LimitEvents after drain = %d, want 1", srq.LimitEvents())
		}
		// Re-arming below the watermark fires immediately.
		if err := srq.ArmLimit(2); err != nil {
			t.Fatal(err)
		}
		if srq.LimitEvents() != 2 {
			t.Fatalf("re-arm below watermark: LimitEvents = %d, want 2", srq.LimitEvents())
		}
	})
	eng.Run()
	if woke == 0 {
		t.Error("WaitLimit never woke")
	}
}

func TestSRQFlushLeavesPoolForOtherQPs(t *testing.T) {
	eng := sim.NewEngine()
	d := newFake(eng)
	srq, _ := NewSRQ(d, SRQConfig{Depth: 8})
	qp1, _, rcq1 := mkSRQQP(t, d, srq)
	qp2, _, _ := mkSRQQP(t, d, srq)
	eng.Spawn("app", func(p *sim.Proc) {
		for i := uint64(1); i <= 3; i++ {
			srq.PostRecv(p, RecvWR{ID: i, Capacity: 100})
		}
		// qp1 fails: unclaimed buffers stay in the pool, no per-QP recv
		// flush completions are generated.
		qp1.SetFailed(errors.New("boom"), StatusFlushed)
		if _, ok := rcq1.Poll(p); ok {
			t.Error("SRQ-attached QP flushed pooled buffers to its own CQ")
		}
		if srq.Posted() != 3 {
			t.Errorf("pool after flush = %d, want 3", srq.Posted())
		}
		// qp2 still claims from the intact pool.
		wr, ok := qp2.TakeRecvWR()
		if !ok || wr.ID != 1 {
			t.Errorf("claim after peer flush = %+v, %v", wr, ok)
		}
	})
	eng.Run()
}

func TestSRQPostRecvNPartialPrefix(t *testing.T) {
	eng := sim.NewEngine()
	d := newFake(eng)
	srq, _ := NewSRQ(d, SRQConfig{Depth: 4})
	eng.Spawn("app", func(p *sim.Proc) {
		wrs := make([]RecvWR, 6)
		for i := range wrs {
			wrs[i] = RecvWR{ID: uint64(i + 1), Capacity: 50}
		}
		before := d.cpu.Server.BusyTotal()
		n, err := srq.PostRecvN(p, wrs)
		if n != 4 || !errors.Is(err, ErrQueueFull) {
			t.Fatalf("PostRecvN = %d, %v, want 4, ErrQueueFull", n, err)
		}
		want := params.US(params.VerbsPostRecvUS + 3*params.VerbsPostRecvBatchUS)
		if got := d.cpu.Server.BusyTotal() - before; got != want {
			t.Errorf("partial post charged %v, want %v (accepted prefix only)", got, want)
		}
		// Full pool: zero accepted, zero charged.
		before = d.cpu.Server.BusyTotal()
		n, err = srq.PostRecvN(p, wrs[:1])
		if n != 0 || !errors.Is(err, ErrQueueFull) {
			t.Fatalf("PostRecvN on full pool = %d, %v", n, err)
		}
		if got := d.cpu.Server.BusyTotal() - before; got != 0 {
			t.Errorf("zero-accept post charged %v", got)
		}
	})
	eng.Run()
}

// TestQPPostRecvNPartialPrefixAccounting pins the batched-post CPU
// accounting contract on the private-recvQ path: a batch cut short when
// the recv FIFO fills mid-batch, or by an invalid WR, charges the host
// for exactly the accepted prefix — first WR at full cost, the rest at
// the marginal batch cost, nothing on a zero-accept.
func TestQPPostRecvNPartialPrefixAccounting(t *testing.T) {
	eng := sim.NewEngine()
	d := newFake(eng)
	qp, _, _ := mkQP(t, eng, d, Reliable, 3)
	eng.Spawn("app", func(p *sim.Proc) {
		wrs := make([]RecvWR, 5)
		for i := range wrs {
			wrs[i] = RecvWR{ID: uint64(i + 1), Capacity: 50}
		}
		// Depth 3, 5 offered: accepted prefix is 3.
		before := d.cpu.Server.BusyTotal()
		n, err := qp.PostRecvN(p, wrs)
		if n != 3 || !errors.Is(err, ErrQueueFull) {
			t.Fatalf("PostRecvN = %d, %v, want 3, ErrQueueFull", n, err)
		}
		want := params.US(params.VerbsPostRecvUS + 2*params.VerbsPostRecvBatchUS)
		if got := d.cpu.Server.BusyTotal() - before; got != want {
			t.Errorf("partial post charged %v, want %v (accepted prefix only)", got, want)
		}
		if qp.PostedRecvBytes() != 150 {
			t.Errorf("PostedRecvBytes = %d, want 150", qp.PostedRecvBytes())
		}
		// FIFO full: zero accepted, zero charged.
		before = d.cpu.Server.BusyTotal()
		if n, err = qp.PostRecvN(p, wrs[:2]); n != 0 || !errors.Is(err, ErrQueueFull) {
			t.Fatalf("PostRecvN on full FIFO = %d, %v", n, err)
		}
		if got := d.cpu.Server.BusyTotal() - before; got != 0 {
			t.Errorf("zero-accept post charged %v", got)
		}
	})
	eng.Run()
	if d.recvPosts != 1 || d.vectoredRecv != 3 {
		t.Errorf("notifications = %d/%d, want 1/3", d.recvPosts, d.vectoredRecv)
	}
}

// Invalid WR mid-batch: the prefix before it posts and is the only thing
// charged.
func TestQPPostRecvNInvalidWRMidBatch(t *testing.T) {
	eng := sim.NewEngine()
	d := newFake(eng)
	qp, _, _ := mkQP(t, eng, d, Reliable, 8)
	eng.Spawn("app", func(p *sim.Proc) {
		wrs := []RecvWR{{ID: 1, Capacity: 50}, {ID: 2, Capacity: 50}, {ID: 3, Capacity: 0}, {ID: 4, Capacity: 50}}
		before := d.cpu.Server.BusyTotal()
		n, err := qp.PostRecvN(p, wrs)
		if n != 2 || err == nil {
			t.Fatalf("PostRecvN = %d, %v, want 2 with error", n, err)
		}
		want := params.US(params.VerbsPostRecvUS + 1*params.VerbsPostRecvBatchUS)
		if got := d.cpu.Server.BusyTotal() - before; got != want {
			t.Errorf("charged %v, want %v", got, want)
		}
	})
	eng.Run()
}

func TestQPExhaustedErrorMatchesBothSentinels(t *testing.T) {
	err := error(&QPExhaustedError{Current: 512, Capacity: 512})
	if !errors.Is(err, ErrQPExhausted) {
		t.Error("does not match ErrQPExhausted")
	}
	if !errors.Is(err, ErrNoResources) {
		t.Error("does not match ErrNoResources (compat)")
	}
	if got := err.Error(); got != "verbs: adapter QP table exhausted (512/512 QPs)" {
		t.Errorf("message = %q", got)
	}
}

// TestNewQPRefusesForeignSRQ: a QP may only join a shared pool created on
// its own device — the pool's reposts notify the pool's adapter, so a
// connection stalled on another adapter would never drain — and never
// another QP's own receive queue.
func TestNewQPRefusesForeignSRQ(t *testing.T) {
	eng := sim.NewEngine()
	d, other := newFake(eng), newFake(eng)
	foreign, err := NewSRQ(other, SRQConfig{Depth: 8})
	if err != nil {
		t.Fatal(err)
	}
	owner, _, _ := mkQP(t, eng, d, Reliable, 8)
	scq, rcq := NewCQ(d, 16), NewCQ(d, 16)
	for _, tc := range []struct {
		name string
		srq  *SRQ
	}{{"other device", foreign}, {"owned pool", owner.SRQ()}} {
		qp, err := NewQP(d, QPConfig{Transport: Reliable, SendCQ: scq, RecvCQ: rcq, SRQ: tc.srq})
		if !errors.Is(err, ErrForeignSRQ) || qp != nil {
			t.Errorf("%s: NewQP = %v, %v, want ErrForeignSRQ", tc.name, qp, err)
		}
	}
	if foreign.Attached() != 0 || owner.SRQ().Attached() != 1 {
		t.Errorf("attached = %d, %d after refusals, want 0, 1", foreign.Attached(), owner.SRQ().Attached())
	}
}

// TestOwnedPoolIsPrivateQueue: a QP created without an SRQ draws from its
// own one-member pool, which keeps the private queue's rules — posts
// follow the QP's state, RecvDepth bounds posted plus claimed WRs, and
// unclaimed WRs flush with the QP after its sends.
func TestOwnedPoolIsPrivateQueue(t *testing.T) {
	eng := sim.NewEngine()
	d := newFake(eng)
	qp, scq, rcq := mkQP(t, eng, d, Reliable, 3)
	pool := qp.SRQ()
	if pool.Owner() != qp || pool.Attached() != 1 || pool.Depth() != 3 {
		t.Fatalf("own pool: owner %v, attached %d, depth %d", pool.Owner(), pool.Attached(), pool.Depth())
	}
	eng.Spawn("app", func(p *sim.Proc) {
		for i := uint64(1); i <= 2; i++ {
			if err := pool.PostRecv(p, RecvWR{ID: i, Capacity: 64}); err != nil {
				t.Fatal(err)
			}
		}
		qp.TakeRecvWR() // claimed, not completed: still counts against depth
		if err := qp.PostRecv(p, RecvWR{ID: 3, Capacity: 64}); err != nil {
			t.Fatal(err)
		}
		if err := pool.PostRecv(p, RecvWR{ID: 4, Capacity: 64}); !errors.Is(err, ErrQueueFull) {
			t.Errorf("post beyond RecvDepth = %v, want ErrQueueFull", err)
		}
		if qp.OutstandingRecv() != 3 || pool.Posted() != 2 {
			t.Errorf("outstanding %d, posted %d, want 3, 2", qp.OutstandingRecv(), pool.Posted())
		}
		qp.SetEstablished(1, 2, inet.NodeAddr6(1))
		if err := qp.PostSend(p, SendWR{ID: 9}); err != nil {
			t.Fatal(err)
		}
		qp.SetFailed(errors.New("test: boom"), StatusFlushed)
		if err := pool.PostRecv(p, RecvWR{ID: 5, Capacity: 64}); err == nil {
			t.Error("post to a failed QP's pool accepted")
		}
		if c, ok := scq.Poll(p); !ok || c.WRID != 9 || c.Status != StatusFlushed {
			t.Errorf("send flush = %+v, %v", c, ok)
		}
		for _, id := range []uint64{2, 3} {
			if c, ok := rcq.Poll(p); !ok || c.WRID != id || c.Status != StatusFlushed {
				t.Errorf("recv flush = %+v, %v, want WR %d flushed", c, ok, id)
			}
		}
		if qp.OutstandingRecv() != 1 || pool.Posted() != 0 || qp.PostedRecvBytes() != 0 {
			t.Errorf("after flush: outstanding %d (the claimed WR), posted %d, bytes %d",
				qp.OutstandingRecv(), pool.Posted(), qp.PostedRecvBytes())
		}
	})
	eng.Run()
	qp.Close()
	if pool.Attached() != 0 {
		t.Errorf("attached = %d after Close", pool.Attached())
	}
}

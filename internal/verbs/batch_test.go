package verbs

import (
	"errors"
	"testing"

	"repro/internal/buf"
	"repro/internal/inet"
	"repro/internal/pool"
	"repro/internal/sim"
)

// TestPostSendNPartialAtQueueFull: a batch larger than the remaining send
// depth posts the admissible prefix, reports ErrQueueFull, and rings
// exactly one vectored doorbell for the prefix. A follow-up batch against
// the full queue posts nothing and rings nothing.
func TestPostSendNPartialAtQueueFull(t *testing.T) {
	eng := sim.NewEngine()
	d := newFake(eng)
	qp, _, _ := mkQP(t, eng, d, Reliable, 4)
	qp.SetEstablished(1, 2, inet.NodeAddr6(1))
	eng.Spawn("app", func(p *sim.Proc) {
		wrs := make([]SendWR, 8)
		for i := range wrs {
			wrs[i] = SendWR{ID: uint64(i), Payload: buf.Virtual(10)}
		}
		n, err := qp.PostSendN(p, wrs)
		if n != 4 || !errors.Is(err, ErrQueueFull) {
			t.Fatalf("PostSendN = (%d, %v), want (4, ErrQueueFull)", n, err)
		}
		if d.doorbells != 1 || d.vectored != 4 {
			t.Errorf("doorbells = %d (vectored %d), want 1 carrying 4", d.doorbells, d.vectored)
		}
		// The queue is full: the next batch is refused outright, with no
		// doorbell and no CPU charge for work not accepted.
		busy0 := d.cpu.BusyTotal()
		n, err = qp.PostSendN(p, wrs[4:])
		if n != 0 || !errors.Is(err, ErrQueueFull) {
			t.Fatalf("PostSendN on full queue = (%d, %v), want (0, ErrQueueFull)", n, err)
		}
		if d.doorbells != 1 {
			t.Errorf("refused batch rang a doorbell (%d total)", d.doorbells)
		}
		if d.cpu.BusyTotal() != busy0 {
			t.Error("refused batch charged host CPU")
		}
		// The admitted prefix is the device-visible WR sequence, in order.
		for i := uint64(0); i < 4; i++ {
			wr, ok := qp.TakeSendWR()
			if !ok || wr.ID != i {
				t.Fatalf("TakeSendWR %d = %+v, %v", i, wr, ok)
			}
		}
	})
	eng.Run()
}

// TestPostSendNRejectsOversized: an oversized WR bounds the admissible
// prefix and surfaces ErrTooBig.
func TestPostSendNRejectsOversized(t *testing.T) {
	eng := sim.NewEngine()
	d := newFake(eng)
	qp, _, _ := mkQP(t, eng, d, Reliable, 8)
	qp.SetEstablished(1, 2, inet.NodeAddr6(1))
	eng.Spawn("app", func(p *sim.Proc) {
		wrs := []SendWR{
			{ID: 1, Payload: buf.Virtual(10)},
			{ID: 2, Payload: buf.Virtual(d.maxMsg + 1)},
			{ID: 3, Payload: buf.Virtual(10)},
		}
		n, err := qp.PostSendN(p, wrs)
		if n != 1 || !errors.Is(err, ErrTooBig) {
			t.Fatalf("PostSendN = (%d, %v), want (1, ErrTooBig)", n, err)
		}
	})
	eng.Run()
}

// TestPostRecvNPartialAtQueueFull mirrors the send-side prefix semantics
// on the receive queue.
func TestPostRecvNPartialAtQueueFull(t *testing.T) {
	eng := sim.NewEngine()
	d := newFake(eng)
	qp, _, _ := mkQP(t, eng, d, Reliable, 4)
	eng.Spawn("app", func(p *sim.Proc) {
		wrs := make([]RecvWR, 8)
		for i := range wrs {
			wrs[i] = RecvWR{ID: uint64(i), Capacity: 64}
		}
		n, err := qp.PostRecvN(p, wrs)
		if n != 4 || !errors.Is(err, ErrQueueFull) {
			t.Fatalf("PostRecvN = (%d, %v), want (4, ErrQueueFull)", n, err)
		}
		if d.recvPosts != 1 || d.vectoredRecv != 4 {
			t.Errorf("recvPosts = %d (vectored %d), want 1 carrying 4", d.recvPosts, d.vectoredRecv)
		}
		if got := qp.PostedRecvBytes(); got != 4*64 {
			t.Errorf("PostedRecvBytes = %d, want %d", got, 4*64)
		}
	})
	eng.Run()
}

// TestPollNMatchesSequentialPolls: a PollN drain must observe the exact
// completion sequence (IDs and statuses) that N single Polls would, for
// the identical push history — including a CQ overflow mid-train, where
// the synthetic StatusCQOverflow completion surfaces only after the queue
// drains, exactly once.
func TestPollNMatchesSequentialPolls(t *testing.T) {
	// Push history: 6 pushes into a depth-4 CQ — 4 land, 2 overflow.
	abuse := func(cq *CQ) {
		for i := uint64(1); i <= 6; i++ {
			cq.Push(Completion{WRID: i, Status: StatusSuccess})
		}
	}
	eng := sim.NewEngine()
	d := newFake(eng)
	ref := NewCQ(d, 4) // drained by single Polls
	got := NewCQ(d, 4) // drained by one PollN
	abuse(ref)
	abuse(got)
	eng.Spawn("app", func(p *sim.Proc) {
		var want []Completion
		for {
			comp, ok := ref.Poll(p)
			if !ok {
				break
			}
			want = append(want, comp)
		}
		out := make([]Completion, 16)
		n := got.PollN(p, out)
		if n != len(want) {
			t.Fatalf("PollN = %d completions, single Polls = %d", n, len(want))
		}
		for i := range want {
			if out[i].WRID != want[i].WRID || out[i].Status != want[i].Status {
				t.Errorf("completion %d: PollN %+v, single Poll %+v", i, out[i], want[i])
			}
		}
		// The train ends with exactly one synthetic overflow completion.
		if n == 0 || out[n-1].Status != StatusCQOverflow {
			t.Fatalf("train tail = %+v, want StatusCQOverflow", out[n-1])
		}
		// The signal fired once: both queues are now simply empty.
		if m := got.PollN(p, out); m != 0 {
			t.Errorf("drained CQ yielded %d more completions", m)
		}
	})
	eng.Run()
}

// TestPollNPartialBufferLeavesOverflowPending: when the caller's buffer is
// smaller than the queue, PollN fills it without consuming the overflow
// signal; the next drain surfaces it.
func TestPollNPartialBufferLeavesOverflowPending(t *testing.T) {
	eng := sim.NewEngine()
	d := newFake(eng)
	cq := NewCQ(d, 4)
	for i := uint64(1); i <= 5; i++ { // 4 land, 1 overflows
		cq.Push(Completion{WRID: i})
	}
	eng.Spawn("app", func(p *sim.Proc) {
		out := make([]Completion, 2)
		if n := cq.PollN(p, out); n != 2 || out[0].WRID != 1 || out[1].WRID != 2 {
			t.Fatalf("first PollN = %d (%+v)", n, out[:n])
		}
		big := make([]Completion, 8)
		n := cq.PollN(p, big)
		if n != 3 || big[2].Status != StatusCQOverflow {
			t.Fatalf("second PollN = %d (%+v), want 2 data + overflow tail", n, big[:n])
		}
	})
	eng.Run()
}

// TestPostAllocFree guards every post path against per-WR heap
// allocation. A single post is its batch form over a one-element slice,
// which must stay on the stack; the device's notification must not
// allocate either. Each cycle posts, plays the adapter (claim and
// complete every WR), and reaps the completions.
func TestPostAllocFree(t *testing.T) {
	if pool.RaceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	eng := sim.NewEngine()
	d := newFake(eng)
	qp, scq, rcq := mkQP(t, eng, d, Unreliable, 8)
	srq, err := NewSRQ(d, SRQConfig{Depth: 8})
	if err != nil {
		t.Fatal(err)
	}
	sqp, _, srcq := mkSRQQP(t, d, srq)
	sends := []SendWR{{ID: 1, Payload: buf.Virtual(64)}, {ID: 2, Payload: buf.Virtual(64)}}
	recvs := []RecvWR{{ID: 1, Capacity: 64}, {ID: 2, Capacity: 64}}
	out := make([]Completion, 4)
	adapter := func(p *sim.Proc) {
		for wr, ok := qp.TakeSendWR(); ok; wr, ok = qp.TakeSendWR() {
			qp.CompleteSend(wr.ID, StatusSuccess, wr.Payload.Len())
		}
		for _, q := range []*QP{qp, sqp} {
			for wr, ok := q.TakeRecvWR(); ok; wr, ok = q.TakeRecvWR() {
				q.CompleteRecv(Completion{WRID: wr.ID})
			}
		}
		scq.PollN(p, out)
		rcq.PollN(p, out)
		srcq.PollN(p, out)
	}
	cases := []struct {
		name string
		post func(p *sim.Proc) error
	}{
		{"QP.PostSend", func(p *sim.Proc) error { return qp.PostSend(p, sends[0]) }},
		{"QP.PostSendN", func(p *sim.Proc) error { _, err := qp.PostSendN(p, sends); return err }},
		{"QP.PostRecv", func(p *sim.Proc) error { return qp.PostRecv(p, recvs[0]) }},
		{"QP.PostRecvN", func(p *sim.Proc) error { _, err := qp.PostRecvN(p, recvs); return err }},
		{"SRQ.PostRecv", func(p *sim.Proc) error { return srq.PostRecv(p, recvs[0]) }},
		{"SRQ.PostRecvN", func(p *sim.Proc) error { _, err := srq.PostRecvN(p, recvs); return err }},
	}
	eng.Spawn("app", func(p *sim.Proc) {
		for _, tc := range cases {
			cycle := func() {
				if err := tc.post(p); err != nil {
					t.Errorf("%s: %v", tc.name, err)
				}
				adapter(p)
			}
			cycle() // warm the rings
			if n := testing.AllocsPerRun(100, cycle); n != 0 {
				t.Errorf("%s allocates %v objects per post, want 0", tc.name, n)
			}
		}
	})
	eng.Run()
}

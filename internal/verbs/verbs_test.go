package verbs

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/buf"
	"repro/internal/hw"
	"repro/internal/inet"
	"repro/internal/params"
	"repro/internal/sim"
)

// fakeDevice is a minimal Device for unit-testing the host-side layer.
type fakeDevice struct {
	eng          *sim.Engine
	cpu          *sim.CPU
	maxMsg       int
	doorbells    int
	recvPosts    int
	vectored     int
	vectoredRecv int
	cqs          int
	connectErr   error
	qpn          uint32
}

func newFake(eng *sim.Engine) *fakeDevice {
	return &fakeDevice{
		eng:    eng,
		cpu:    sim.NewCPU(eng, "host", params.HostClockHz),
		maxMsg: 16 * 1024,
	}
}

func (d *fakeDevice) HostCPU() *sim.CPU  { return d.cpu }
func (d *fakeDevice) MaxMessage() int    { return d.maxMsg }
func (d *fakeDevice) AllocQPN() uint32   { d.qpn++; return 16 + d.qpn }
func (d *fakeDevice) CreateQP(*QP) error { return nil }
func (d *fakeDevice) DestroyQP(qp *QP)   { qp.Flush() }
func (d *fakeDevice) ResetQP(*QP) error  { return nil }
func (d *fakeDevice) BindUDP(qp *QP, port uint16) (uint16, error) {
	if port == 0 {
		return 49152, nil
	}
	return port, nil
}
func (d *fakeDevice) Connect(qp *QP, raddr inet.Addr6, rport uint16) error {
	return d.connectErr
}
func (d *fakeDevice) Listen(port uint16) (*Listener, error) {
	return NewListener(port, d), nil
}
func (d *fakeDevice) SendDoorbell(_ *QP, n int) {
	d.doorbells++
	d.vectored += n
}
func (d *fakeDevice) RecvPosted(_ *SRQ, n int) {
	d.recvPosts++
	d.vectoredRecv += n
}
func (d *fakeDevice) AttachCQ(cq *CQ) {
	d.cqs++
	cq.BindEvent(hw.NewIRQLine(d.eng, func(int) { cq.EventWake() }))
}

func mkQP(t *testing.T, eng *sim.Engine, d *fakeDevice, tr TransportType, depth int) (*QP, *CQ, *CQ) {
	t.Helper()
	scq, rcq := NewCQ(d, 16), NewCQ(d, 16)
	qp, err := NewQP(d, QPConfig{Transport: tr, SendCQ: scq, RecvCQ: rcq, SendDepth: depth, RecvDepth: depth})
	if err != nil {
		t.Fatal(err)
	}
	return qp, scq, rcq
}

func TestQPRequiresCQs(t *testing.T) {
	eng := sim.NewEngine()
	d := newFake(eng)
	if _, err := NewQP(d, QPConfig{}); err == nil {
		t.Fatal("QP without CQs accepted")
	}
}

func TestPostSendChecksStateAndDepth(t *testing.T) {
	eng := sim.NewEngine()
	d := newFake(eng)
	qp, _, _ := mkQP(t, eng, d, Reliable, 2)
	eng.Spawn("app", func(p *sim.Proc) {
		// Reliable QP not yet established: rejected.
		if err := qp.PostSend(p, SendWR{ID: 1, Payload: buf.Virtual(10)}); err == nil {
			t.Error("PostSend on unconnected RC QP accepted")
		}
		qp.SetEstablished(1, 2, inet.NodeAddr6(1))
		if err := qp.PostSend(p, SendWR{ID: 1, Payload: buf.Virtual(10)}); err != nil {
			t.Errorf("PostSend: %v", err)
		}
		if err := qp.PostSend(p, SendWR{ID: 2, Payload: buf.Virtual(10)}); err != nil {
			t.Errorf("PostSend: %v", err)
		}
		// Depth 2 reached, nothing completed: queue full.
		if err := qp.PostSend(p, SendWR{ID: 3, Payload: buf.Virtual(10)}); !errors.Is(err, ErrQueueFull) {
			t.Errorf("third PostSend = %v, want ErrQueueFull", err)
		}
		// Oversized message rejected.
		qp2, _, _ := mkQP(t, eng, d, Unreliable, 8)
		if err := qp2.PostSend(p, SendWR{ID: 4, Payload: buf.Virtual(d.maxMsg + 1)}); !errors.Is(err, ErrTooBig) {
			t.Errorf("oversized = %v, want ErrTooBig", err)
		}
	})
	eng.Run()
	if d.doorbells != 2 {
		t.Errorf("doorbells = %d, want 2", d.doorbells)
	}
}

func TestPostRecvGrowsWindowAccounting(t *testing.T) {
	eng := sim.NewEngine()
	d := newFake(eng)
	qp, _, _ := mkQP(t, eng, d, Reliable, 8)
	eng.Spawn("app", func(p *sim.Proc) {
		qp.PostRecv(p, RecvWR{ID: 1, Capacity: 1000})
		qp.PostRecv(p, RecvWR{ID: 2, Capacity: 500})
		if got := qp.PostedRecvBytes(); got != 1500 {
			t.Errorf("PostedRecvBytes = %d", got)
		}
		wr, ok := qp.TakeRecvWR()
		if !ok || wr.ID != 1 {
			t.Fatalf("TakeRecvWR = %+v, %v", wr, ok)
		}
		if got := qp.PostedRecvBytes(); got != 500 {
			t.Errorf("PostedRecvBytes after take = %d", got)
		}
		if err := qp.PostRecv(p, RecvWR{ID: 3, Capacity: 0}); err == nil {
			t.Error("zero-capacity recv WR accepted")
		}
	})
	eng.Run()
	if d.recvPosts != 2 {
		t.Errorf("recvPosts = %d", d.recvPosts)
	}
}

func TestCompletionFlowAndOrder(t *testing.T) {
	eng := sim.NewEngine()
	d := newFake(eng)
	qp, scq, _ := mkQP(t, eng, d, Reliable, 8)
	qp.SetEstablished(1, 2, inet.NodeAddr6(1))
	eng.Spawn("app", func(p *sim.Proc) {
		for i := uint64(1); i <= 3; i++ {
			if err := qp.PostSend(p, SendWR{ID: i, Payload: buf.Virtual(1)}); err != nil {
				t.Fatal(err)
			}
		}
		// Device consumes and completes out of band.
		for i := uint64(1); i <= 3; i++ {
			wr, ok := qp.TakeSendWR()
			if !ok || wr.ID != i {
				t.Fatalf("TakeSendWR %d = %+v", i, wr)
			}
			qp.CompleteSend(wr.ID, StatusSuccess, wr.Payload.Len())
		}
		for i := uint64(1); i <= 3; i++ {
			comp, ok := scq.Poll(p)
			if !ok || comp.WRID != i || comp.Op != OpSend {
				t.Fatalf("completion %d = %+v, %v", i, comp, ok)
			}
		}
		if _, ok := scq.Poll(p); ok {
			t.Error("extra completion")
		}
	})
	eng.Run()
}

func TestCQWaitBlocksUntilPush(t *testing.T) {
	eng := sim.NewEngine()
	d := newFake(eng)
	cq := NewCQ(d, 8)
	var got Completion
	var at sim.Time
	eng.Spawn("app", func(p *sim.Proc) {
		got = cq.Wait(p)
		at = p.Now()
	})
	eng.At(500*sim.Microsecond, "push", func() {
		cq.Push(Completion{WRID: 42, Status: StatusSuccess})
	})
	eng.Run()
	if got.WRID != 42 {
		t.Fatalf("Wait returned %+v", got)
	}
	if at < 500*sim.Microsecond {
		t.Errorf("Wait returned at %v, before the push", at)
	}
}

func TestCQOverflowCounted(t *testing.T) {
	eng := sim.NewEngine()
	d := newFake(eng)
	cq := NewCQ(d, 2)
	cq.Push(Completion{WRID: 1})
	cq.Push(Completion{WRID: 2})
	cq.Push(Completion{WRID: 3}) // overflows
	if cq.Overflows() != 1 {
		t.Errorf("Overflows = %d", cq.Overflows())
	}
	if cq.Len() != 2 {
		t.Errorf("Len = %d", cq.Len())
	}
}

func TestFlushCompletesOutstandingWRs(t *testing.T) {
	eng := sim.NewEngine()
	d := newFake(eng)
	qp, scq, rcq := mkQP(t, eng, d, Reliable, 8)
	qp.SetEstablished(1, 2, inet.NodeAddr6(1))
	eng.Spawn("app", func(p *sim.Proc) {
		qp.PostSend(p, SendWR{ID: 1, Payload: buf.Virtual(1)})
		qp.PostRecv(p, RecvWR{ID: 2, Capacity: 64})
		qp.SetFailed(errors.New("boom"), StatusFlushed)
		sc, ok := scq.Poll(p)
		if !ok || sc.Status != StatusFlushed || sc.WRID != 1 {
			t.Errorf("send flush = %+v, %v", sc, ok)
		}
		rc, ok := rcq.Poll(p)
		if !ok || rc.Status != StatusFlushed || rc.WRID != 2 {
			t.Errorf("recv flush = %+v, %v", rc, ok)
		}
		// Posting after error returns the error.
		if err := qp.PostSend(p, SendWR{ID: 3, Payload: buf.Virtual(1)}); err == nil {
			t.Error("PostSend after error accepted")
		}
	})
	eng.Run()
}

func TestListenerIdlePool(t *testing.T) {
	eng := sim.NewEngine()
	d := newFake(eng)
	lst := NewListener(7000, d)
	qp1, _, _ := mkQP(t, eng, d, Reliable, 8)
	qp2, _, _ := mkQP(t, eng, d, Reliable, 8)
	if err := lst.Post(qp1); err != nil {
		t.Fatal(err)
	}
	if err := lst.Post(qp2); err != nil {
		t.Fatal(err)
	}
	if err := lst.Post(qp1); err == nil {
		t.Error("re-posting a connecting QP accepted")
	}
	if lst.Idle() != 2 {
		t.Errorf("Idle = %d", lst.Idle())
	}
	got1, ok := lst.TakeIdle()
	if !ok || got1 != qp1 {
		t.Error("TakeIdle order wrong")
	}
	got2, _ := lst.TakeIdle()
	if got2 != qp2 {
		t.Error("TakeIdle order wrong")
	}
	if _, ok := lst.TakeIdle(); ok {
		t.Error("TakeIdle on empty pool succeeded")
	}
}

func TestConnectOnUDQPFails(t *testing.T) {
	eng := sim.NewEngine()
	d := newFake(eng)
	qp, _, _ := mkQP(t, eng, d, Unreliable, 8)
	eng.Spawn("app", func(p *sim.Proc) {
		if err := qp.Connect(p, inet.NodeAddr6(1), 7000); !errors.Is(err, ErrNotSupported) {
			t.Errorf("Connect on UD QP = %v", err)
		}
	})
	eng.Run()
}

func TestBindUDPOnRCQPFails(t *testing.T) {
	eng := sim.NewEngine()
	d := newFake(eng)
	qp, _, _ := mkQP(t, eng, d, Reliable, 8)
	if _, err := qp.BindUDP(5000); !errors.Is(err, ErrNotSupported) {
		t.Errorf("BindUDP on RC QP = %v", err)
	}
}

func TestQPNsUnique(t *testing.T) {
	eng := sim.NewEngine()
	d := newFake(eng)
	seen := map[uint32]bool{}
	for i := 0; i < 50; i++ {
		qp, _, _ := mkQP(t, eng, d, Reliable, 1)
		if seen[qp.QPN] {
			t.Fatalf("duplicate QPN %d", qp.QPN)
		}
		seen[qp.QPN] = true
	}
}

// TestNames pins the printed names of transports, QP states and
// completion statuses (error messages and traces print them).
func TestNames(t *testing.T) {
	for _, tc := range []struct {
		v    fmt.Stringer
		want string
	}{
		{Reliable, "RC/TCP"}, {Unreliable, "UD/UDP"},
		{QPReset, "RESET"}, {QPInit, "INIT"}, {QPRTR, "RTR"}, {QPRTS, "RTS"},
		{QPSQD, "SQD"}, {QPError, "ERR"}, {QPClosed, "CLOSED"}, {QPState(99), "state(99)"},
		{StatusSuccess, "success"}, {StatusRetryExceeded, "retry-exceeded"}, {Status(99), "status(99)"},
	} {
		if got := tc.v.String(); got != tc.want {
			t.Errorf("%#v prints %q, want %q", tc.v, got, tc.want)
		}
	}
}

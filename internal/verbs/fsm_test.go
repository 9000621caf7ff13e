package verbs

import (
	"errors"
	"testing"

	"repro/internal/sim"
)

// allQPStates enumerates the lifecycle states in declaration order.
var allQPStates = []QPState{QPReset, QPInit, QPRTR, QPRTS, QPSQD, QPError, QPClosed}

// fsmWant is one cell of the transition table: the error ModifyQP must
// return and the state the QP must land in.
type fsmWant struct {
	err   error
	state QPState
}

// TestModifyQPTransitionTable pins every (state, target) pair of the
// modify-QP machine against the documented table (fsm.go): host-driven
// edges succeed, device-owned and undefined edges return ErrNotSupported,
// anything from CLOSED returns ErrBadState, and ERR→ERR / RESET→RESET are
// idempotent. A denied transition must leave the state untouched.
func TestModifyQPTransitionTable(t *testing.T) {
	table := map[QPState]map[QPState]fsmWant{
		QPReset: {
			QPReset:  {nil, QPReset}, // idempotent recycle
			QPInit:   {nil, QPInit},
			QPRTR:    {ErrNotSupported, QPReset}, // device-owned (Connect/Post)
			QPRTS:    {ErrNotSupported, QPReset},
			QPSQD:    {ErrNotSupported, QPReset},
			QPError:  {nil, QPError}, // administrative kill
			QPClosed: {ErrNotSupported, QPReset},
		},
		QPInit: {
			QPReset:  {nil, QPReset},
			QPInit:   {ErrNotSupported, QPInit},
			QPRTR:    {ErrNotSupported, QPInit},
			QPRTS:    {ErrNotSupported, QPInit},
			QPSQD:    {ErrNotSupported, QPInit},
			QPError:  {nil, QPError},
			QPClosed: {ErrNotSupported, QPInit},
		},
		QPRTR: {
			QPReset:  {nil, QPReset}, // abandon an in-flight rendezvous
			QPInit:   {ErrNotSupported, QPRTR},
			QPRTR:    {ErrNotSupported, QPRTR},
			QPRTS:    {ErrNotSupported, QPRTR}, // firmware's edge, not the host's
			QPSQD:    {ErrNotSupported, QPRTR},
			QPError:  {nil, QPError},
			QPClosed: {ErrNotSupported, QPRTR},
		},
		QPRTS: {
			QPReset:  {nil, QPReset},
			QPInit:   {ErrNotSupported, QPRTS},
			QPRTR:    {ErrNotSupported, QPRTS},
			QPRTS:    {ErrNotSupported, QPRTS}, // only SQD resumes to RTS
			QPSQD:    {nil, QPSQD},             // begin send-queue drain
			QPError:  {nil, QPError},
			QPClosed: {ErrNotSupported, QPRTS},
		},
		QPSQD: {
			QPReset:  {nil, QPReset},
			QPInit:   {ErrNotSupported, QPSQD},
			QPRTR:    {ErrNotSupported, QPSQD},
			QPRTS:    {nil, QPRTS}, // resume after (or during) drain
			QPSQD:    {ErrNotSupported, QPSQD},
			QPError:  {nil, QPError},
			QPClosed: {ErrNotSupported, QPSQD},
		},
		QPError: {
			QPReset:  {nil, QPReset}, // the reconnect primitive
			QPInit:   {ErrNotSupported, QPError},
			QPRTR:    {ErrNotSupported, QPError},
			QPRTS:    {ErrNotSupported, QPError},
			QPSQD:    {ErrNotSupported, QPError},
			QPError:  {nil, QPError}, // idempotent
			QPClosed: {ErrNotSupported, QPError},
		},
		QPClosed: {
			QPReset:  {ErrBadState, QPClosed},
			QPInit:   {ErrBadState, QPClosed},
			QPRTR:    {ErrBadState, QPClosed},
			QPRTS:    {ErrBadState, QPClosed},
			QPSQD:    {ErrBadState, QPClosed},
			QPError:  {ErrBadState, QPClosed},
			QPClosed: {ErrBadState, QPClosed},
		},
	}

	eng := sim.NewEngine()
	d := newFake(eng)
	eng.Spawn("fsm", func(p *sim.Proc) {
		for _, from := range allQPStates {
			for _, to := range allQPStates {
				want, ok := table[from][to]
				if !ok {
					t.Fatalf("table missing (%v, %v)", from, to)
				}
				qp, _, _ := mkQP(t, eng, d, Reliable, 8)
				qp.state = from
				err := qp.ModifyQP(p, to)
				if !errors.Is(err, want.err) {
					t.Errorf("ModifyQP(%v→%v) err = %v, want %v", from, to, err, want.err)
				}
				if qp.state != want.state {
					t.Errorf("ModifyQP(%v→%v) landed in %v, want %v", from, to, qp.state, want.state)
				}
			}
		}
	})
	eng.Run()
}

// TestFlushedRecvTrainThroughPollN pins the disconnect-flush contract for
// batched reaping: receives stranded in the (SRQ-less) recv FIFO when the
// connection dies must surface as a StatusFlushed train through PollN
// exactly as they do through a loop of single Polls — same count, same
// post order, flushed sends before flushed receives on their respective
// CQs. Regression test: PollN's batched fast path used to be exercised
// only for success completions.
func TestFlushedRecvTrainThroughPollN(t *testing.T) {
	load := func(qp *QP, p *sim.Proc) {
		qp.state = QPEstablished
		for i := uint64(1); i <= 3; i++ {
			if err := qp.PostSend(p, SendWR{ID: 100 + i}); err != nil {
				t.Fatal(err)
			}
		}
		for i := uint64(1); i <= 5; i++ {
			if err := qp.PostRecv(p, RecvWR{ID: 200 + i, Capacity: 4096}); err != nil {
				t.Fatal(err)
			}
		}
		qp.SetFailed(errors.New("test: peer vanished"), StatusFlushed)
	}
	eng := sim.NewEngine()
	d := newFake(eng)
	ref, refS, refR := mkQP(t, eng, d, Reliable, 8)
	got, gotS, gotR := mkQP(t, eng, d, Reliable, 8)
	eng.Spawn("app", func(p *sim.Proc) {
		load(ref, p)
		load(got, p)
		drain := func(cq *CQ) []Completion {
			var out []Completion
			for {
				comp, ok := cq.Poll(p)
				if !ok {
					return out
				}
				out = append(out, comp)
			}
		}
		check := func(kind string, want []Completion, cq *CQ) {
			out := make([]Completion, 16)
			n := cq.PollN(p, out)
			if n != len(want) {
				t.Fatalf("%s: PollN = %d completions, single Polls = %d", kind, n, len(want))
			}
			for i := range want {
				if out[i].WRID != want[i].WRID || out[i].Status != want[i].Status {
					t.Errorf("%s completion %d: PollN %+v, single Poll %+v", kind, i, out[i], want[i])
				}
				if out[i].Status != StatusFlushed {
					t.Errorf("%s completion %d: status %v, want StatusFlushed", kind, i, out[i].Status)
				}
			}
		}
		check("send", drain(refS), gotS)
		check("recv", drain(refR), gotR)
		if len(drain(gotR)) != 0 {
			t.Error("recv CQ still has completions after the PollN train")
		}
	})
	eng.Run()
}

// TestModifyQPResetClearsAddressing verifies the recycle edge wipes the
// connection identity and error, flushes outstanding WRs, and leaves the
// QP connectable again.
func TestModifyQPResetClearsAddressing(t *testing.T) {
	eng := sim.NewEngine()
	d := newFake(eng)
	eng.Spawn("reset", func(p *sim.Proc) {
		qp, scq, _ := mkQP(t, eng, d, Reliable, 8)
		qp.state = QPEstablished
		qp.LocalPort, qp.RemotePort = 1000, 2000
		if err := qp.PostSend(p, SendWR{ID: 1}); err != nil {
			t.Fatal(err)
		}
		qp.SetFailed(errors.New("test: boom"), StatusFlushed)
		if _, ok := scq.Poll(p); !ok {
			t.Fatal("failure did not flush the posted send")
		}
		if err := qp.ModifyQP(p, QPReset); err != nil {
			t.Fatal(err)
		}
		if qp.Err() != nil || qp.LocalPort != 0 || qp.RemotePort != 0 {
			t.Errorf("reset kept identity: err=%v local=%d remote=%d",
				qp.Err(), qp.LocalPort, qp.RemotePort)
		}
		if qp.State() != QPReset {
			t.Errorf("state = %v, want RESET", qp.State())
		}
	})
	eng.Run()
}

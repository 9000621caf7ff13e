package qpip_test

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/qpip"
)

// This file is the connection-density property test for the SRQ refactor
// (DESIGN §16): ~1k QPs on one server adapter, all drawing receive
// buffers from a single shared receive queue a fraction of their size,
// under link chaos and an adapter crash. Three properties are pinned:
//
//	exactly-once: every tagged message a client successfully sent is
//	    delivered to exactly one receive WR (chaos plan; the crash plan
//	    relaxes to at-most-once — no tag may ever be claimed twice)
//	replay: running the identical seeded plan twice produces the
//	    bit-identical claim log — the SRQ's device-wide FIFO claim order
//	    is deterministic, not an accident of map iteration
//	sharding: the 2-shard conservative runner, with client and server
//	    nodes on different engines, matches the sequential engine on
//	    every observable (qpip/parallel_test.go's contract, at 16x the
//	    connection count and through the SRQ claim path)

const (
	csConns  = 1024
	csMsgs   = 2
	csMsgLen = 256
	csPort   = 7500
	// csPool is deliberately far below csConns*csMsgs in-flight messages:
	// the storm must drain through claim/repost cycling and RNR
	// backpressure, not a pre-provisioned buffer per message.
	csPool = 384
)

// connscaleResult is everything one run produces that must be identical
// across replays and shard placements.
type connscaleResult struct {
	trace     string
	endTime   qpip.Time
	fired     uint64
	stats     fault.Stats
	delivered string // claim-order log: one "qpn/wr/tag " entry per success
	dupes     int
	missing   int
	counters  [2]string
	clients   string // concatenated per-client completion sequences
}

func connscaleCluster(mode string) *qpip.Cluster {
	cfg := qpip.NodeConfig{QPIP: true, QPIPMaxQPs: csConns + 64}
	switch mode {
	case "sequential":
		return qpip.NewCluster(2, cfg)
	case "2-shard":
		return qpip.NewShardedCluster(2, cfg, qpip.ShardPlan{Shards: 2})
	default:
		panic("unknown mode " + mode)
	}
}

// runConnscale drives csConns clients on node 0 into csConns SRQ-attached
// QPs on node 1 under plan. Each message carries its global tag in the
// payload; the server's claim loop decodes it and records the claim in
// delivery order. strict plans must deliver every tag exactly once;
// non-strict plans (crashes) only require a drained, duplicate-free run.
func runConnscale(t *testing.T, mode string, plan qpip.FaultPlan, strict bool) connscaleResult {
	t.Helper()
	c := connscaleCluster(mode)
	inj := c.InjectFaults(plan)

	var res connscaleResult
	seen := make([]int, csConns*csMsgs)
	clientLog := make([]string, csConns)

	c.SpawnOn(1, "connscale-server", func(p *qpip.Proc) {
		rcq := qpip.NewCQ(c.Nodes[1], csConns*csMsgs+64)
		scq := qpip.NewCQ(c.Nodes[1], 8)
		srq, err := qpip.NewSRQ(c.Nodes[1], qpip.SRQConfig{Depth: csPool})
		if err != nil {
			t.Errorf("NewSRQ: %v", err)
			return
		}
		lst, err := c.Nodes[1].QPIP.Listen(csPort)
		if err != nil {
			t.Errorf("Listen: %v", err)
			return
		}
		for i := 0; i < csConns; i++ {
			qp, err := qpip.NewQPWith(c.Nodes[1], qpip.QPConfig{
				Transport: qpip.Reliable, SendCQ: scq, RecvCQ: rcq,
				SendDepth: 2, SRQ: srq,
			})
			if err != nil {
				t.Errorf("server QP %d: %v", i, err)
				return
			}
			if err := lst.Post(qp); err != nil {
				t.Errorf("Post QP %d: %v", i, err)
				return
			}
		}
		wrID := uint64(0)
		pool := make([]qpip.RecvWR, csPool)
		for i := range pool {
			pool[i] = qpip.RecvWR{ID: wrID, Capacity: csMsgLen}
			wrID++
		}
		if n, err := srq.PostRecvN(p, pool); n != csPool || err != nil {
			t.Errorf("PostRecvN: posted %d/%d, err %v", n, csPool, err)
			return
		}
		// One claim, one repost: a crash plan may starve the loop of its
		// remaining completions, parking it here — Run drains regardless.
		for got := 0; got < csConns*csMsgs; got++ {
			comp := rcq.Wait(p)
			if comp.Status != qpip.StatusSuccess {
				res.delivered += fmt.Sprintf("!%d=%v ", comp.WRID, comp.Status)
				continue
			}
			tag := int(binary.BigEndian.Uint32(comp.Payload.Data()))
			seen[tag]++
			res.delivered += fmt.Sprintf("%d/%d/%d ", comp.QPN, comp.WRID, tag)
			if err := srq.PostRecv(p, qpip.RecvWR{ID: wrID, Capacity: csMsgLen}); err != nil {
				t.Errorf("repost: %v", err)
				return
			}
			wrID++
		}
	})
	for ci := 0; ci < csConns; ci++ {
		ci := ci
		c.SpawnOn(0, fmt.Sprintf("connscale-cli%d", ci), func(p *qpip.Proc) {
			qp, scq, _, err := qpip.NewReliableQP(c.Nodes[0], 4)
			if err != nil {
				t.Errorf("client %d QP: %v", ci, err)
				return
			}
			if err := qp.Connect(p, c.Nodes[1].Addr6, csPort); err != nil {
				clientLog[ci] = fmt.Sprintf("conn=%v ", err)
				return
			}
			for m := 0; m < csMsgs; m++ {
				tag := ci*csMsgs + m
				data := make([]byte, csMsgLen)
				binary.BigEndian.PutUint32(data, uint32(tag))
				if err := qp.PostSend(p, qpip.SendWR{ID: uint64(tag), Payload: qpip.Message(data)}); err != nil {
					clientLog[ci] += fmt.Sprintf("post%d=%v ", m, err)
					return
				}
				comp := scq.Wait(p)
				clientLog[ci] += fmt.Sprintf("s%d=%v ", comp.WRID, comp.Status)
				if strict && comp.Status != qpip.StatusSuccess {
					t.Errorf("client %d send %d completed %v", ci, m, comp.Status)
				}
			}
		})
	}
	c.Run() // a hang here is an SRQ backpressure or shard barrier deadlock
	res.trace = inj.TraceString()
	res.stats = inj.Stats()
	res.endTime = c.EndTime()
	res.fired = c.FiredTotal()
	for i, n := range c.Nodes {
		res.counters[i] = n.QPIP.Net.String()
	}
	res.clients = strings.Join(clientLog, "")
	for _, n := range seen {
		if n > 1 {
			res.dupes++
		}
		if n == 0 {
			res.missing++
		}
	}

	if res.dupes > 0 {
		t.Errorf("mode %s: %d tags delivered more than once", mode, res.dupes)
	}
	if strict && res.missing > 0 {
		t.Errorf("mode %s: %d tags never delivered", mode, res.missing)
	}
	return res
}

// assertConnscaleIdentical compares every observable of two runs.
func assertConnscaleIdentical(t *testing.T, name string, ref, got connscaleResult, refMode, gotMode string) {
	t.Helper()
	if ref.trace != got.trace {
		t.Errorf("%s: fault traces diverge between %s and %s", name, refMode, gotMode)
	}
	if ref.endTime != got.endTime {
		t.Errorf("%s: end times diverge: %s=%v %s=%v", name, refMode, ref.endTime, gotMode, got.endTime)
	}
	if ref.fired != got.fired {
		t.Errorf("%s: event counts diverge: %s=%d %s=%d", name, refMode, ref.fired, gotMode, got.fired)
	}
	if ref.stats != got.stats {
		t.Errorf("%s: fault stats diverge: %s=%+v %s=%+v", name, refMode, ref.stats, gotMode, got.stats)
	}
	if ref.delivered != got.delivered {
		t.Errorf("%s: SRQ claim logs diverge between %s and %s (len %d vs %d)",
			name, refMode, gotMode, len(ref.delivered), len(got.delivered))
	}
	if ref.clients != got.clients {
		t.Errorf("%s: client completion sequences diverge between %s and %s", name, refMode, gotMode)
	}
	for i := range ref.counters {
		if ref.counters[i] != got.counters[i] {
			t.Errorf("%s: node %d counters diverge:\n%s:\n%s\n%s:\n%s",
				name, i, refMode, ref.counters[i], gotMode, got.counters[i])
		}
	}
}

// connscalePlans: seeded link chaos (strict — drops, corruption,
// duplication, and jitter all repair through retransmission), and a
// server-adapter crash/restart mid-storm (non-strict — surviving
// deliveries must still be duplicate-free and bit-identical).
func connscalePlans() []struct {
	name   string
	plan   qpip.FaultPlan
	strict bool
} {
	return []struct {
		name   string
		plan   qpip.FaultPlan
		strict bool
	}{
		{name: "chaos", plan: qpip.FaultPlan{
			Seed:          0x5129,
			DropProb:      0.01,
			CorruptProb:   0.005,
			DupProb:       0.01,
			DelayProb:     0.02,
			MaxExtraDelay: 10_000,
		}, strict: true},
		{name: "crash", plan: qpip.FaultPlan{
			Seed:     23,
			DropProb: 0.005,
			Crashes:  []qpip.Crash{{Node: 1, At: 2 * sim.Millisecond, Down: 10 * sim.Millisecond}},
		}, strict: false},
	}
}

// TestConnscaleSRQProperties is the satellite gate: for each plan, the
// sequential run satisfies the delivery property, a second sequential run
// replays it bit-identically, and the 2-shard run (client and server
// adapters on different engines, every frame crossing the barrier)
// matches both.
func TestConnscaleSRQProperties(t *testing.T) {
	for _, tc := range connscalePlans() {
		t.Run(tc.name, func(t *testing.T) {
			seq := runConnscale(t, "sequential", tc.plan, tc.strict)
			if t.Failed() {
				return
			}
			replay := runConnscale(t, "sequential", tc.plan, tc.strict)
			assertConnscaleIdentical(t, tc.name, seq, replay, "sequential", "sequential-replay")
			two := runConnscale(t, "2-shard", tc.plan, tc.strict)
			assertConnscaleIdentical(t, tc.name, seq, two, "sequential", "2-shard")
		})
	}
}

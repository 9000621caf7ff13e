package qpip_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/buf"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/qpip"
)

// This file is the correctness gate for the conservative parallel
// simulation core (DESIGN §14): the same 4-node workload under the same
// seeded fault plan must produce bit-identical results — fault trace,
// per-flow byte streams, completion status sequences, per-node adapter
// counters, total event count, and end time — in three execution modes:
//
//	sequential: one engine, plain NewQPIPCluster (the reference)
//	1-shard:    the parallel runner's worker machinery, one engine
//	2-shard:    two engines, every flow crossing the shard boundary,
//	            frames exchanged at lookahead epoch barriers
//
// Where qpip/golden_test.go pins one execution mode's world to a file, this
// checks that the execution substrate itself cannot change that world.

// matrixResult is everything one matrix run produces that must be
// identical across modes. Every field is written by exactly one process
// (distinct array slots) — never shared between processes on different
// shards — so sharded runs stay race-free.
type matrixResult struct {
	trace    string      // canonical injector event log
	endTime  qpip.Time   // max last-event time across engines
	fired    uint64      // total events executed across engines
	received [2][]byte   // per-flow server-side payload bytes, delivery order
	statuses [4]string   // per-process completion status strings
	counters [4]string   // per-node adapter counter dumps
	stats    fault.Stats // injector totals
}

// The matrix runs two concurrent flows on four nodes: client node 0 →
// server node 1, client node 2 → server node 3. Round-robin placement at
// two shards puts nodes 0,2 on shard 0 and 1,3 on shard 1, so BOTH flows
// cross the shard boundary and every data, ack, and handshake frame rides
// the barrier mailboxes.
const (
	matrixMsgs   = 32
	matrixMsgLen = 4096
)

func matrixCluster(mode string, cfg qpip.NodeConfig) *qpip.Cluster {
	switch mode {
	case "sequential":
		return qpip.NewCluster(4, cfg)
	case "1-shard":
		return qpip.NewShardedCluster(4, cfg, qpip.ShardPlan{Shards: 1})
	case "2-shard":
		return qpip.NewShardedCluster(4, cfg, qpip.ShardPlan{Shards: 2})
	case "isolated":
		// Pair (2k, 2k+1) co-sharded: both flows stay shard-local, so no
		// frame rides a barrier mailbox.
		return qpip.NewShardedCluster(4, cfg, qpip.ShardPlan{
			Shards:    2,
			NodeShard: func(i int) int { return i / 2 },
		})
	default:
		panic("unknown mode " + mode)
	}
}

// matrixFlows are the two flows' (client, server) nodes.
var matrixFlows = [2][2]int{{0, 1}, {2, 3}}

// runMatrix executes the two-flow workload under plan in the given mode.
// strict asserts full success (the plan kills no WRs); non-strict plans
// (crashes) only require the run to drain and match across modes.
func runMatrix(t *testing.T, mode string, cfg qpip.NodeConfig, plan qpip.FaultPlan, strict bool) matrixResult {
	t.Helper()
	c := matrixCluster(mode, cfg)
	inj := c.InjectFaults(plan)

	var res matrixResult
	for fi, f := range matrixFlows {
		fi, client, server := fi, f[0], f[1]
		port := uint16(7000 + fi)
		c.SpawnOn(server, fmt.Sprintf("server%d", server), func(p *qpip.Proc) {
			qp, _, rcq, err := qpip.NewReliableQP(c.Nodes[server], 64)
			if err != nil {
				t.Errorf("server %d QP: %v", server, err)
				return
			}
			lst, err := c.Nodes[server].QPIP.Listen(port)
			if err != nil {
				t.Errorf("Listen %d: %v", server, err)
				return
			}
			lst.Post(qp)
			if err := qp.WaitEstablished(p); err != nil {
				res.statuses[server] += fmt.Sprintf("est=%v ", err)
				return
			}
			for i := 0; i < matrixMsgs; i++ {
				if err := qp.PostRecv(p, qpip.RecvWR{ID: uint64(i), Capacity: matrixMsgLen}); err != nil {
					t.Errorf("PostRecv %d: %v", i, err)
					return
				}
			}
			for i := 0; i < matrixMsgs; i++ {
				comp := rcq.Wait(p)
				res.statuses[server] += fmt.Sprintf("r%d=%v ", comp.WRID, comp.Status)
				if comp.Status != qpip.StatusSuccess {
					if strict {
						t.Errorf("flow %d recv WR %d completed %v", fi, comp.WRID, comp.Status)
					}
					continue
				}
				res.received[fi] = append(res.received[fi], comp.Payload.Data()...)
			}
		})
		c.SpawnOn(client, fmt.Sprintf("client%d", client), func(p *qpip.Proc) {
			qp, scq, _, err := qpip.NewReliableQP(c.Nodes[client], 64)
			if err != nil {
				t.Errorf("client %d QP: %v", client, err)
				return
			}
			if err := qp.Connect(p, c.Nodes[server].Addr6, port); err != nil {
				res.statuses[client] += fmt.Sprintf("conn=%v ", err)
				return
			}
			inFlight := 0
			reap := func() {
				comp := scq.Wait(p)
				res.statuses[client] += fmt.Sprintf("s%d=%v ", comp.WRID, comp.Status)
				if strict && comp.Status != qpip.StatusSuccess {
					t.Errorf("flow %d send WR %d completed %v", fi, comp.WRID, comp.Status)
				}
				inFlight--
			}
			for i := 0; i < matrixMsgs; i++ {
				for inFlight >= 16 {
					reap()
				}
				if err := qp.PostSend(p, qpip.SendWR{ID: uint64(i), Payload: buf.Pattern(matrixMsgLen, byte(fi<<4|i&0xf))}); err != nil {
					res.statuses[client] += fmt.Sprintf("post%d=%v ", i, err)
					return
				}
				inFlight++
			}
			for inFlight > 0 {
				reap()
			}
		})
	}
	c.Run() // must drain in every mode: a hang is a barrier deadlock
	res.capture(c, inj)

	if strict {
		for fi := range matrixFlows {
			var want []byte
			for i := 0; i < matrixMsgs; i++ {
				want = append(want, buf.Pattern(matrixMsgLen, byte(fi<<4|i&0xf)).Data()...)
			}
			if !bytes.Equal(res.received[fi], want) {
				t.Errorf("mode %s flow %d: delivered %d bytes, want %d",
					mode, fi, len(res.received[fi]), len(want))
			}
		}
	}
	return res
}

// capture records the drained cluster's run-wide observables.
func (res *matrixResult) capture(c *qpip.Cluster, inj *qpip.FaultInjector) {
	res.trace = inj.TraceString()
	res.stats = inj.Stats()
	res.endTime = c.EndTime()
	res.fired = c.FiredTotal()
	for i, n := range c.Nodes {
		res.counters[i] = n.QPIP.Net.String()
	}
}

// runDatagramMatrix is the matrix's unreliable-QP workload on the same
// two flows: each client sends matrixMsgs datagrams to its server, which
// echoes every one back. Every frame is a datagram, so both adapters'
// transmit FSMs run the take-WR hand-off into the datagram tail.
func runDatagramMatrix(t *testing.T, mode string, cfg qpip.NodeConfig) matrixResult {
	t.Helper()
	c := matrixCluster(mode, cfg)
	inj := c.InjectFaults(qpip.FaultPlan{})
	var res matrixResult
	for fi, f := range matrixFlows {
		fi, client, server := fi, f[0], f[1]
		port := uint16(5300 + fi)
		c.SpawnOn(server, fmt.Sprintf("dgram-server%d", server), func(p *qpip.Proc) {
			qp, _, rcq, err := qpip.NewUnreliableQP(c.Nodes[server], 64)
			if err == nil {
				_, err = qp.BindUDP(port)
			}
			for i := 0; err == nil && i < matrixMsgs; i++ {
				err = qp.PostRecv(p, qpip.RecvWR{ID: uint64(i), Capacity: matrixMsgLen})
			}
			if err != nil {
				t.Errorf("server %d: %v", server, err)
				return
			}
			for i := 0; i < matrixMsgs; i++ {
				comp := rcq.Wait(p)
				res.statuses[server] += fmt.Sprintf("r%d=%v ", comp.WRID, comp.Status)
				res.received[fi] = append(res.received[fi], comp.Payload.Data()...)
				if err := qp.PostSend(p, qpip.SendWR{ID: comp.WRID, Payload: comp.Payload,
					RemoteAddr: comp.RemoteAddr, RemotePort: comp.RemotePort}); err != nil {
					t.Errorf("server %d echo %d: %v", server, i, err)
					return
				}
			}
		})
		c.SpawnOn(client, fmt.Sprintf("dgram-client%d", client), func(p *qpip.Proc) {
			qp, scq, rcq, err := qpip.NewUnreliableQP(c.Nodes[client], 64)
			if err == nil {
				_, err = qp.BindUDP(0)
			}
			for i := 0; err == nil && i < matrixMsgs; i++ {
				err = qp.PostRecv(p, qpip.RecvWR{ID: uint64(i), Capacity: matrixMsgLen})
			}
			if err != nil {
				t.Errorf("client %d: %v", client, err)
				return
			}
			p.Sleep(sim.Millisecond) // the server's receive WRs are posted
			for i := 0; i < matrixMsgs; i++ {
				if err := qp.PostSend(p, qpip.SendWR{ID: uint64(i), Payload: buf.Pattern(matrixMsgLen, byte(fi<<4|i&0xf)),
					RemoteAddr: c.Nodes[server].Addr6, RemotePort: port}); err != nil {
					t.Errorf("client %d send %d: %v", client, i, err)
					return
				}
			}
			for i := 0; i < matrixMsgs; i++ {
				comp := scq.Wait(p)
				res.statuses[client] += fmt.Sprintf("s%d=%v ", comp.WRID, comp.Status)
			}
			for i := 0; i < matrixMsgs; i++ {
				comp := rcq.Wait(p)
				res.statuses[client] += fmt.Sprintf("e%d=%v:%d ", comp.WRID, comp.Status, comp.ByteLen)
			}
		})
	}
	c.Run()
	res.capture(c, inj)
	for fi := range matrixFlows {
		if got, want := len(res.received[fi]), matrixMsgs*matrixMsgLen; got != want {
			t.Errorf("mode %s flow %d: %d datagram bytes delivered, want %d", mode, fi, got, want)
		}
	}
	return res
}

// assertIdentical compares every observable of two modes' runs.
func assertIdentical(t *testing.T, name string, ref, got matrixResult, refMode, gotMode string) {
	t.Helper()
	if ref.trace != got.trace {
		t.Errorf("%s: fault traces diverge between %s and %s:\n--- %s ---\n%s--- %s ---\n%s",
			name, refMode, gotMode, refMode, ref.trace, gotMode, got.trace)
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
	for fi := range ref.received {
		if !bytes.Equal(ref.received[fi], got.received[fi]) {
			t.Errorf("%s: flow %d delivered bytes diverge (%d vs %d bytes)",
				name, fi, len(ref.received[fi]), len(got.received[fi]))
		}
	}
	for i := range ref.statuses {
		if ref.statuses[i] != got.statuses[i] {
			t.Errorf("%s: node %d completion sequences diverge:\n%s: %s\n%s: %s",
				name, i, refMode, ref.statuses[i], gotMode, got.statuses[i])
		}
	}
	for i := range ref.counters {
		if ref.counters[i] != got.counters[i] {
			t.Errorf("%s: node %d counters diverge:\n%s:\n%s\n%s:\n%s",
				name, i, refMode, ref.counters[i], gotMode, got.counters[i])
		}
	}
}

// matrixRow is one row of the equivalence matrix: an adapter
// configuration, a fault plan and the workload (reliable flows, or the
// datagram exchange).
type matrixRow struct {
	name     string
	cfg      qpip.NodeConfig
	plan     qpip.FaultPlan
	strict   bool
	datagram bool
}

// run executes the row in one mode.
func (r matrixRow) run(t *testing.T, mode string) matrixResult {
	t.Helper()
	if r.datagram {
		return runDatagramMatrix(t, mode, r.cfg)
	}
	return runMatrix(t, mode, r.cfg, r.plan, r.strict)
}

// matrixPlans is the chaos matrix: fault-free, link chaos (drops +
// corruption + duplication + jitter), a mid-transfer flap window, and an
// adapter crash/restart — each run in all three modes — plus the two
// transmit-FSM shapes the fault-free flows leave out: a pipelined
// transmit FSM, whose Send stage completes without waiting for the wire,
// and the datagram exchange.
func matrixPlans() []matrixRow {
	qp := qpip.NodeConfig{QPIP: true}
	return []matrixRow{
		{name: "fault-free", cfg: qp, plan: qpip.FaultPlan{}, strict: true},
		{name: "chaos", cfg: qp, plan: qpip.FaultPlan{
			Seed:          0xC0FFEE,
			DropProb:      0.02,
			CorruptProb:   0.01,
			DupProb:       0.02,
			DelayProb:     0.05,
			MaxExtraDelay: 20_000,
			SkipFirst:     8,
		}, strict: true},
		{name: "flap", cfg: qp, plan: qpip.FaultPlan{
			Seed:  7,
			Flaps: qpip.FlapTrain(1, 2*sim.Millisecond, 300*sim.Microsecond, 500*sim.Microsecond, 3),
		}, strict: true},
		{name: "crash", cfg: qp, plan: qpip.FaultPlan{
			Seed:     11,
			DropProb: 0.005,
			Crashes:  []qpip.Crash{{Node: 3, At: 2 * sim.Millisecond, Down: 5 * sim.Millisecond}},
		}, strict: false},
		{name: "pipelined-tx", cfg: qpip.NodeConfig{QPIP: true, QPIPPipelinedTX: true}, strict: true},
		{name: "datagram", cfg: qp, strict: true, datagram: true},
	}
}

// TestParallelMatrixEquivalence is the acceptance gate: for every plan in
// the chaos matrix, the 1-shard and 2-shard runs are bit-identical to the
// sequential engine.
func TestParallelMatrixEquivalence(t *testing.T) {
	for _, tc := range matrixPlans() {
		t.Run(tc.name, func(t *testing.T) {
			seq := tc.run(t, "sequential")
			if t.Failed() {
				return
			}
			one := tc.run(t, "1-shard")
			two := tc.run(t, "2-shard")
			assertIdentical(t, tc.name, seq, one, "sequential", "1-shard")
			assertIdentical(t, tc.name, seq, two, "sequential", "2-shard")
		})
	}
}

// TestParallelIsolatedPlacement covers co-sharded placement: pairs on one
// shard, no cross-shard traffic, epochs with empty mailboxes — still
// bit-identical to sequential.
func TestParallelIsolatedPlacement(t *testing.T) {
	qp := qpip.NodeConfig{QPIP: true}
	seq := runMatrix(t, "sequential", qp, qpip.FaultPlan{}, true)
	if t.Failed() {
		return
	}
	iso := runMatrix(t, "isolated", qp, qpip.FaultPlan{}, true)
	assertIdentical(t, "isolated", seq, iso, "sequential", "isolated-2-shard")
}

// TestParallelRunFor pins RunFor equivalence: advancing a sharded cluster
// in bounded time slices must visit the same schedule as one Run.
func TestParallelRunFor(t *testing.T) {
	run := func(slices bool) (uint64, qpip.Time) {
		c := qpip.NewShardedCluster(4, qpip.NodeConfig{QPIP: true}, qpip.ShardPlan{Shards: 2})
		for fi := 0; fi < 2; fi++ {
			client, server := fi*2, fi*2+1
			port := uint16(7100 + fi)
			c.SpawnOn(server, "s", func(p *qpip.Proc) {
				qp, _, rcq, err := qpip.NewReliableQP(c.Nodes[server], 16)
				if err != nil {
					t.Errorf("server QP: %v", err)
					return
				}
				lst, err := c.Nodes[server].QPIP.Listen(port)
				if err != nil {
					t.Errorf("Listen: %v", err)
					return
				}
				lst.Post(qp)
				if qp.WaitEstablished(p) != nil {
					return
				}
				for i := 0; i < 8; i++ {
					qp.PostRecv(p, qpip.RecvWR{ID: uint64(i), Capacity: 2048})
				}
				for i := 0; i < 8; i++ {
					rcq.Wait(p)
				}
			})
			c.SpawnOn(client, "c", func(p *qpip.Proc) {
				qp, scq, _, err := qpip.NewReliableQP(c.Nodes[client], 16)
				if err != nil {
					t.Errorf("client QP: %v", err)
					return
				}
				if qp.Connect(p, c.Nodes[server].Addr6, port) != nil {
					return
				}
				for i := 0; i < 8; i++ {
					qp.PostSend(p, qpip.SendWR{ID: uint64(i), Payload: qpip.VirtualMessage(2048)})
					scq.Wait(p)
				}
			})
		}
		if slices {
			for i := 0; i < 50; i++ {
				c.RunFor(sim.Millisecond)
			}
			c.Run() // drain any tail
		} else {
			c.Run()
		}
		return c.FiredTotal(), c.EndTime()
	}
	f1, e1 := run(false)
	f2, e2 := run(true)
	if f1 != f2 || e1 != e2 {
		t.Errorf("RunFor slicing diverges: fired %d vs %d, end %v vs %v", f1, f2, e1, e2)
	}
}

// --- Switched topologies and collectives under the parallel runner ---
//
// The multi-hop fabric (DESIGN §15) threads frames through switch egress
// arbiters whose grants depend only on timestamps, and the conservative
// runner's lookahead shrinks to the cheapest cut-crossing path. These
// tests pin the same bit-identity contract as the 4-node matrix on the
// two shapes that stress it most: a 4x4 mesh whose XY routes cross the
// shard cut mid-path, and a ring-topology NIC-offloaded allreduce whose
// firmware messages are the only traffic.

// topoResult is everything a topology run produces that must be
// identical across shard placements, and the epochs the parallel runner
// took (logged, not compared).
type topoResult struct {
	trace    string
	endTime  qpip.Time
	fired    uint64
	stats    fault.Stats
	statuses [16]string
	counters [16]string
	epochs   uint64
}

func (r *topoResult) capture(c *qpip.Cluster, inj *qpip.FaultInjector) {
	r.trace = inj.TraceString()
	r.stats = inj.Stats()
	r.endTime = c.EndTime()
	r.fired = c.FiredTotal()
	r.epochs = c.Epochs()
	for i, n := range c.Nodes {
		r.counters[i] = n.QPIP.Net.String()
	}
}

func assertTopoIdentical(t *testing.T, name string, ref, got topoResult, refMode, gotMode string) {
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
	for i := range ref.statuses {
		if ref.statuses[i] != got.statuses[i] {
			t.Errorf("%s: node %d observation sequences diverge:\n%s: %s\n%s: %s",
				name, i, refMode, ref.statuses[i], gotMode, got.statuses[i])
		}
	}
	for i := range ref.counters {
		if ref.counters[i] != got.counters[i] {
			t.Errorf("%s: node %d counters diverge:\n%s:\n%s\n%s:\n%s",
				name, i, refMode, ref.counters[i], gotMode, got.counters[i])
		}
	}
}

// topoCluster builds an n-node cluster on spec with the given shard
// count (0 = plain sequential engine).
func topoCluster(n, shards int, spec qpip.TopoSpec) *qpip.Cluster {
	cfg := qpip.NodeConfig{QPIP: true, Topology: spec}
	if shards == 0 {
		return qpip.NewCluster(n, cfg)
	}
	return qpip.NewShardedCluster(n, cfg, qpip.ShardPlan{Shards: shards})
}

// runTopoMesh runs four reliable flows across a 4x4 mesh — each route
// crosses the round-robin shard cut at least once — and captures every
// observable.
func runTopoMesh(t *testing.T, shards int, plan qpip.FaultPlan) topoResult {
	t.Helper()
	const n, msgs, msgLen = 16, 16, 2048
	c := topoCluster(n, shards, qpip.TopoSpec{Kind: qpip.TopoMesh, W: 4, H: 4})
	inj := c.InjectFaults(plan)
	var res topoResult
	flows := [4][2]int{{0, 5}, {2, 7}, {8, 13}, {10, 15}}
	for fi, f := range flows {
		fi, client, server := fi, f[0], f[1]
		port := uint16(7300 + fi)
		c.SpawnOn(server, fmt.Sprintf("mesh-server%d", server), func(p *qpip.Proc) {
			qp, _, rcq, err := qpip.NewReliableQP(c.Nodes[server], 64)
			if err != nil {
				t.Errorf("server %d QP: %v", server, err)
				return
			}
			lst, err := c.Nodes[server].QPIP.Listen(port)
			if err != nil {
				t.Errorf("Listen %d: %v", server, err)
				return
			}
			lst.Post(qp)
			if err := qp.WaitEstablished(p); err != nil {
				res.statuses[server] += fmt.Sprintf("est=%v ", err)
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
				res.statuses[server] += fmt.Sprintf("r%d=%v ", comp.WRID, comp.Status)
				if comp.Status == qpip.StatusSuccess {
					res.statuses[server] += fmt.Sprintf("len%d ", comp.Payload.Len())
				}
			}
		})
		c.SpawnOn(client, fmt.Sprintf("mesh-client%d", client), func(p *qpip.Proc) {
			qp, scq, _, err := qpip.NewReliableQP(c.Nodes[client], 64)
			if err != nil {
				t.Errorf("client %d QP: %v", client, err)
				return
			}
			if err := qp.Connect(p, c.Nodes[server].Addr6, port); err != nil {
				res.statuses[client] += fmt.Sprintf("conn=%v ", err)
				return
			}
			for i := 0; i < msgs; i++ {
				if err := qp.PostSend(p, qpip.SendWR{ID: uint64(i), Payload: buf.Pattern(msgLen, byte(fi<<4|i&0xf))}); err != nil {
					res.statuses[client] += fmt.Sprintf("post%d=%v ", i, err)
					return
				}
				comp := scq.Wait(p)
				res.statuses[client] += fmt.Sprintf("s%d=%v ", comp.WRID, comp.Status)
			}
		})
	}
	c.Run()
	res.capture(c, inj)
	return res
}

// TestParallelTopologyMesh: the 4x4 mesh workload is bit-identical in
// sequential, 2-shard, and 4-shard placements, fault-free and under
// full link chaos (multi-hop frames are retransmitted like any other).
func TestParallelTopologyMesh(t *testing.T) {
	plans := []struct {
		name string
		plan qpip.FaultPlan
	}{
		{name: "fault-free", plan: qpip.FaultPlan{}},
		{name: "chaos", plan: qpip.FaultPlan{
			Seed:          0xBEEF,
			DropProb:      0.01,
			DupProb:       0.02,
			DelayProb:     0.05,
			MaxExtraDelay: 20_000,
			SkipFirst:     16,
		}},
	}
	for _, tc := range plans {
		t.Run(tc.name, func(t *testing.T) {
			seq := runTopoMesh(t, 0, tc.plan)
			if t.Failed() {
				return
			}
			two := runTopoMesh(t, 2, tc.plan)
			four := runTopoMesh(t, 4, tc.plan)
			assertTopoIdentical(t, tc.name, seq, two, "sequential", "2-shard")
			assertTopoIdentical(t, tc.name, seq, four, "sequential", "4-shard")
			t.Logf("mesh/%s: %d epochs at 2 shards, %d at 4", tc.name, two.epochs, four.epochs)
		})
	}
}

// runTopoAllreduce runs three NIC-offloaded ring allreduces on spec: the
// firmware's step messages are the only traffic, so the test isolates the
// collective engine's determinism under sharding.
func runTopoAllreduce(t *testing.T, spec qpip.TopoSpec, shards int, plan qpip.FaultPlan) topoResult {
	t.Helper()
	const n, ops, words = 8, 3, 16
	c := topoCluster(n, shards, spec)
	inj := c.InjectFaults(plan)
	addrs := make([]qpip.Addr6, n)
	for i := range addrs {
		addrs[i] = c.Nodes[i].Addr6
	}
	var res topoResult
	for i := 0; i < n; i++ {
		i := i
		c.SpawnOn(i, fmt.Sprintf("rank%d", i), func(p *qpip.Proc) {
			cq := qpip.NewCQ(c.Nodes[i], 16)
			q, err := qpip.NewCollQ(c.Nodes[i], 1, i, addrs, cq)
			if err != nil {
				t.Errorf("rank %d: %v", i, err)
				return
			}
			for op := 0; op < ops; op++ {
				vec := make([]uint64, words)
				for j := range vec {
					vec[j] = uint64(i*100 + op*10 + j)
				}
				if err := q.PostAllreduce(p, uint64(op), vec); err != nil {
					t.Errorf("rank %d op %d: %v", i, op, err)
					return
				}
				comp := cq.Wait(p)
				res.statuses[i] += fmt.Sprintf("c%d=%v:%x ", comp.WRID, comp.Status, comp.Payload.Data())
				// Word j sums i*100+op*10+j over the n ranks.
				got := qpip.UnmarshalVec(comp.Payload)
				if len(got) != words {
					t.Errorf("rank %d op %d: %d result words, want %d", i, op, len(got), words)
				}
				for j, w := range got {
					if want := uint64(100*n*(n-1)/2 + n*(op*10+j)); w != want {
						t.Errorf("rank %d op %d word %d = %d, want %d", i, op, j, w, want)
					}
				}
			}
		})
	}
	c.Run()
	res.capture(c, inj)
	return res
}

// TestParallelTopologyAllreduce: the ring-allreduce plan is bit-identical
// in sequential, 2-shard, and 4-shard placements, on a ring and on a
// fat-tree whose spines home on shard 0, fault-free and under
// delay+duplication chaos (the collective engine is dup-safe and
// reorder-safe but has no retransmit, so drops are out of scope).
func TestParallelTopologyAllreduce(t *testing.T) {
	plans := []struct {
		name string
		plan qpip.FaultPlan
	}{
		{name: "fault-free", plan: qpip.FaultPlan{}},
		{name: "delay-dup-chaos", plan: qpip.FaultPlan{
			Seed:          0xABCD,
			DupProb:       0.05,
			DelayProb:     0.10,
			MaxExtraDelay: 15_000,
		}},
	}
	for _, tc := range plans {
		t.Run(tc.name, func(t *testing.T) {
			for _, spec := range []qpip.TopoSpec{{Kind: qpip.TopoRing}, {Kind: qpip.TopoFatTree}} {
				name := fmt.Sprintf("%v/%s", spec.Kind, tc.name)
				seq := runTopoAllreduce(t, spec, 0, tc.plan)
				if t.Failed() {
					return
				}
				two := runTopoAllreduce(t, spec, 2, tc.plan)
				four := runTopoAllreduce(t, spec, 4, tc.plan)
				assertTopoIdentical(t, name, seq, two, "sequential", "2-shard")
				assertTopoIdentical(t, name, seq, four, "sequential", "4-shard")
				t.Logf("%s: %d epochs at 2 shards, %d at 4", name, two.epochs, four.epochs)
			}
		})
	}
}

// TestParallelStarAllreduce runs the allreduce on the single-star fabric,
// whose ports publish emission floors. The collective engine sends beside
// the transmit FSM, so an adapter with a live group publishes its
// engine's next event time; the sharded runs stay bit-identical.
func TestParallelStarAllreduce(t *testing.T) {
	seq := runTopoAllreduce(t, qpip.TopoSpec{}, 0, qpip.FaultPlan{})
	if t.Failed() {
		return
	}
	two := runTopoAllreduce(t, qpip.TopoSpec{}, 2, qpip.FaultPlan{})
	four := runTopoAllreduce(t, qpip.TopoSpec{}, 4, qpip.FaultPlan{})
	assertTopoIdentical(t, "star", seq, two, "sequential", "2-shard")
	assertTopoIdentical(t, "star", seq, four, "sequential", "4-shard")
	t.Logf("star: %d epochs at 2 shards, %d at 4", two.epochs, four.epochs)
}

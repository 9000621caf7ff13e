package main

import (
	"bytes"
	"fmt"

	"repro/internal/buf"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/hostos"
	"repro/internal/inet"
	"repro/internal/qpipnic"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/verbs"
)

// workload is one benchmark input: build constructs the cluster and spawns
// its actors; everything after that is the harness's.
type workload struct {
	name string
	// ops is how many operations the timed region attempts at a scale
	// (1 = the benchmark's size).
	ops func(scale float64) int
	// engines is how many simulation engines the cluster runs on; a child
	// gets that many processors.
	engines int
	// build constructs the cluster at that scale and derives every input
	// from seed.
	build func(h *harness, seed uint64, scale float64)
}

// Sizes at scale 1, chosen on the 2-core reference host so one timed region
// takes about two seconds; a run repeats regions until --seconds is spent.
// Every workload warms up with 1/16 of its timed work (at least one op).
const (
	streamMsgs     = 128 * 1024 // 16 KiB virtual records (2 GiB)
	streamRealMsgs = 48 * 1024  // 16 KiB real records (768 MiB)
	incastConns    = 8192
	incastMsgs     = 9   // per connection
	incastWindow   = 4   // outstanding sends per client
	incastPool     = 256 // SRQ depth: service concurrency, not connections
	incastMsgBytes = 1024
	allreduceNodes = 128
	allreduceOps   = 40
	allreduceWords = 64
	socketsSends   = 32 * 1024 // 16 KiB writes (512 MiB)
	shardedPairs   = 4
	shardedEngines = 2
	shardedMsgs    = 2560 // per pair (40 MiB)

	recordBytes = 16 * 1024
	rcWindow    = 64 // outstanding messages per reliable pair
	rcBatch     = 16 // WRs per PostSendN / PostRecvN
	// maxStagger bounds the seeded client start offset.
	maxStagger = 50 * sim.Microsecond
)

var workloads = []*workload{
	{
		name: "stream", engines: 1,
		ops: func(scale float64) int { return scaled(streamMsgs, scale) },
		build: func(h *harness, seed uint64, scale float64) {
			buildPairs(h, seed, core.NewCluster(2, streamConfig), 1, scaled(streamMsgs, scale), false)
		},
	},
	{
		name: "stream_real", engines: 1,
		ops: func(scale float64) int { return scaled(streamRealMsgs, scale) },
		build: func(h *harness, seed uint64, scale float64) {
			buildPairs(h, seed, core.NewCluster(2, streamConfig), 1, scaled(streamRealMsgs, scale), true)
		},
	},
	{
		name: "incast", engines: 1,
		ops:   func(scale float64) int { return scaled(incastConns, scale) * incastMsgs },
		build: buildIncast,
	},
	{
		name: "allreduce", engines: 1,
		ops:   func(scale float64) int { return allreduceRanks(scale) * allreduceOps },
		build: buildAllreduce,
	},
	{
		name: "sockets", engines: 1,
		ops:   func(scale float64) int { return scaled(socketsSends, scale) },
		build: buildSockets,
	},
	{
		name: "sharded", engines: shardedEngines,
		ops:   func(scale float64) int { return shardedPairs * scaled(shardedMsgs, scale) },
		build: buildSharded,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// scaled sizes a count, never below one.
func scaled(n int, scale float64) int {
	if v := int(float64(n) * scale); v > 1 {
		return v
	}
	return 1
}

// warmup is the warm-up pass for n timed operations.
func warmup(n int) int { return (n + 15) / 16 }

func stagger(seed uint64, actor int) sim.Time {
	return sim.Time(rnd(seed, actor, 0, 0) % uint64(maxStagger))
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// streamConfig is the paper's Figure 4 QPIP configuration.
var streamConfig = core.NodeConfig{QPIP: true, QPIPMTU: 16384, QPIPChecksum: qpipnic.ChecksumEmulatedHW}

// ---- reliable-QP pairs: stream, stream_real, sharded ----

// buildPairs spawns pairs closed-loop ttcp transfers on c, client node 2k
// to server node 2k+1, msgs records each, rcWindow outstanding, posted and
// reaped in batches of rcBatch. With real set the records carry seeded
// bytes and the receiver compares every one.
func buildPairs(h *harness, seed uint64, c *core.Cluster, pairs, msgs int, real bool) {
	h.c = c
	size := recordBytes
	if m := c.Nodes[0].QPIP.MaxMessage(); size > m {
		size = m
	}
	// A prime number of distinct records, so the pattern a message carries
	// is not a function of its window slot.
	var records [][]byte
	if real {
		records = make([][]byte, 67)
		for i := range records {
			records[i] = make([]byte, size)
			for j := 0; j < size; j += 8 {
				v := rnd(seed, i, j, 1)
				for k := 0; k < 8 && j+k < size; k++ {
					records[i][j+k] = byte(v >> (8 * k))
				}
			}
		}
	}
	payload := func(i int) buf.Buf {
		if real {
			return buf.Bytes(records[i%len(records)])
		}
		return buf.Virtual(size)
	}
	intact := func(comp *verbs.Completion, i int) bool {
		if comp.Status != verbs.StatusSuccess || comp.ByteLen != size {
			return false
		}
		return !real || bytes.Equal(comp.Payload.Data(), records[i%len(records)])
	}
	for k := 0; k < pairs; k++ {
		client, server := c.Nodes[2*k], c.Nodes[2*k+1]
		port := uint16(7000 + k)
		h.spawn(server.Index, fmt.Sprintf("server%d", k), 0, 0, func(p *sim.Proc, a *actor) {
			qp, _, rcq := newRC(server, 2*rcWindow)
			lst, err := server.QPIP.Listen(port)
			must(err)
			must(lst.Post(qp))
			must(qp.WaitEstablished(p))
			recv := func(n int) {
				var wrs [rcBatch]verbs.RecvWR
				var comps [rcWindow]verbs.Completion
				posted, got := 0, 0
				post := func() {
					for posted < n && posted-got < rcWindow {
						b := 0
						for b < rcBatch && posted+b < n && posted+b-got < rcWindow {
							wrs[b] = verbs.RecvWR{ID: uint64(posted + b), Capacity: size}
							b++
						}
						done, err := qp.PostRecvN(p, wrs[:b])
						must(err)
						posted += done
					}
				}
				post()
				for got < n {
					comp := rcq.Wait(p)
					a.check(intact(&comp, got))
					got++
					// One wake-up reaps whatever else already completed.
					more := rcq.PollN(p, comps[:])
					for i := 0; i < more; i++ {
						a.check(intact(&comps[i], got+i))
					}
					got += more
					post()
				}
			}
			a.gate()
			recv(warmup(msgs))
			a.start()
			recv(msgs)
		})
		h.spawn(client.Index, fmt.Sprintf("client%d", k), stagger(seed, k), msgs, func(p *sim.Proc, a *actor) {
			qp, scq, _ := newRC(client, 2*rcWindow)
			must(qp.Connect(p, server.Addr6, port))
			send := func(n int) {
				var wrs [rcBatch]verbs.SendWR
				var comps [rcWindow]verbs.Completion
				var postedAt [rcWindow]sim.Time
				reap := func(comp *verbs.Completion) {
					a.done(postedAt[comp.WRID%rcWindow], comp.Status == verbs.StatusSuccess)
				}
				sent, inFlight := 0, 0
				for sent < n || inFlight > 0 {
					for inFlight < rcWindow && sent < n {
						b := 0
						for b < rcBatch && inFlight+b < rcWindow && sent+b < n {
							wrs[b] = verbs.SendWR{ID: uint64(sent + b), Payload: payload(sent + b)}
							postedAt[(sent+b)%rcWindow] = p.Now()
							b++
						}
						done, err := qp.PostSendN(p, wrs[:b])
						must(err)
						sent += done
						inFlight += done
					}
					comp := scq.Wait(p)
					reap(&comp)
					inFlight--
					if inFlight > 0 {
						more := scq.PollN(p, comps[:inFlight])
						for i := 0; i < more; i++ {
							reap(&comps[i])
						}
						inFlight -= more
					}
				}
			}
			a.gate()
			send(warmup(msgs))
			a.start()
			send(msgs)
		})
	}
}

func newRC(node *core.Node, depth int) (*verbs.QP, *verbs.CQ, *verbs.CQ) {
	scq := verbs.NewCQ(node.QPIP, 2*depth)
	rcq := verbs.NewCQ(node.QPIP, 2*depth)
	qp, err := verbs.NewQP(node.QPIP, verbs.QPConfig{
		Transport: verbs.Reliable, SendCQ: scq, RecvCQ: rcq,
		SendDepth: depth, RecvDepth: depth,
	})
	must(err)
	return qp, scq, rcq
}

// buildSharded runs the pair workload on two shard engines with every pair
// straddling the cut, and afterwards repeats it on one engine: the two
// must fire the same events and end at the same simulated instant.
func buildSharded(h *harness, seed uint64, scale float64) {
	cfg := core.NodeConfig{QPIP: true}
	msgs := scaled(shardedMsgs, scale)
	// Round-robin placement: node 2k on shard 0, node 2k+1 on shard 1.
	buildPairs(h, seed, core.NewShardedCluster(2*shardedPairs, cfg, core.ShardPlan{Shards: shardedEngines}), shardedPairs, msgs, false)
	h.verify = func(events uint64, simElapsed sim.Time) string {
		seq := &harness{}
		buildPairs(seq, seed, core.NewCluster(2*shardedPairs, cfg), shardedPairs, msgs, false)
		seq.c.Run()
		seq.release()
		seq.c.Run()
		t0 := seq.release()
		seq.c.Run()
		var end sim.Time
		for _, a := range seq.actors {
			if a.end > end {
				end = a.end
			}
		}
		if got := seq.c.FiredTotal(); got != events {
			return fmt.Sprintf("sharded fired %d events, sequential %d", events, got)
		}
		if end-t0 != simElapsed {
			return fmt.Sprintf("sharded took %v simulated, sequential %v", simElapsed, end-t0)
		}
		return ""
	}
}

// ---- incast ----

// buildIncast drives incastConns client QPs on node 0 into one server
// adapter whose receive buffers come from a shared pool of incastPool WRs.
func buildIncast(h *harness, seed uint64, scale float64) {
	conns := scaled(incastConns, scale)
	msgs := incastMsgs
	warm := warmup(msgs)
	h.c = core.NewCluster(2, core.NodeConfig{QPIP: true, QPIPMaxQPs: conns + 64})
	nicC, nicS := h.c.Nodes[0].QPIP, h.c.Nodes[1].QPIP
	serverAddr := h.c.Nodes[1].Addr6
	const port = 7800

	h.spawn(1, "incast-server", 0, 0, func(p *sim.Proc, a *actor) {
		rcq := verbs.NewCQ(nicS, conns*msgs+8)
		scq := verbs.NewCQ(nicS, 8)
		pool := incastPool
		if conns*msgs < pool {
			pool = conns * msgs
		}
		srq, err := verbs.NewSRQ(nicS, verbs.SRQConfig{Depth: pool})
		must(err)
		lst, err := nicS.Listen(port)
		must(err)
		qps := make([]*verbs.QP, conns)
		for i := range qps {
			qps[i], err = verbs.NewQP(nicS, verbs.QPConfig{
				Transport: verbs.Reliable, SendCQ: scq, RecvCQ: rcq, SendDepth: 2, SRQ: srq,
			})
			must(err)
			must(lst.Post(qps[i]))
		}
		for i := 0; i < pool; i++ {
			must(srq.PostRecv(p, verbs.RecvWR{ID: uint64(i), Capacity: incastMsgBytes}))
		}
		for _, qp := range qps {
			must(qp.WaitEstablished(p))
		}
		// Reposts go back in batches of 16 (one doorbell per batch); late
		// arrivals ride the adapter's RNR stash until the batch posts.
		repost := make([]verbs.RecvWR, 0, 16)
		serve := func(n int) {
			for got := 0; got < n; got++ {
				comp := rcq.Wait(p)
				a.check(comp.Status == verbs.StatusSuccess && comp.ByteLen == incastMsgBytes)
				repost = append(repost, verbs.RecvWR{Capacity: incastMsgBytes})
				if len(repost) == cap(repost) || got == n-1 {
					_, err := srq.PostRecvN(p, repost)
					must(err)
					repost = repost[:0]
				}
			}
		}
		a.gate()
		serve(conns * warm)
		a.start()
		serve(conns * msgs)
	})
	for ci := 0; ci < conns; ci++ {
		h.spawn(0, fmt.Sprintf("incast-cli%d", ci), stagger(seed, ci), msgs, func(p *sim.Proc, a *actor) {
			scq := verbs.NewCQ(nicC, 2*incastWindow)
			rcq := verbs.NewCQ(nicC, 2)
			qp, err := verbs.NewQP(nicC, verbs.QPConfig{
				Transport: verbs.Reliable, SendCQ: scq, RecvCQ: rcq,
				SendDepth: incastWindow, RecvDepth: 1,
			})
			must(err)
			must(qp.Connect(p, serverAddr, port))
			send := func(n int) {
				var postedAt [incastWindow]sim.Time
				sent, inFlight := 0, 0
				for sent < n || inFlight > 0 {
					for inFlight < incastWindow && sent < n {
						postedAt[sent%incastWindow] = p.Now()
						must(qp.PostSend(p, verbs.SendWR{ID: uint64(sent), Payload: buf.Virtual(incastMsgBytes)}))
						sent++
						inFlight++
					}
					comp := scq.Wait(p)
					a.done(postedAt[comp.WRID%incastWindow], comp.Status == verbs.StatusSuccess)
					inFlight--
				}
			}
			a.gate()
			send(warm)
			a.start()
			send(msgs)
		})
	}
}

// ---- allreduce ----

// allreduceRanks is the group size at a scale; below eight ranks the fat
// tree would have no cross-leaf route.
func allreduceRanks(scale float64) int {
	if n := scaled(allreduceNodes, scale); n > 8 {
		return n
	}
	return 8
}

// buildAllreduce runs NIC-offloaded ring allreduces over a two-level
// fat-tree; every rank checks every result against the seeded sum.
func buildAllreduce(h *harness, seed uint64, scale float64) {
	n := allreduceRanks(scale)
	ops := allreduceOps
	warm := warmup(ops)
	h.c = core.NewCluster(n, core.NodeConfig{QPIP: true, Topology: topo.Spec{Kind: topo.FatTree}})
	addrs := make([]inet.Addr6, n)
	for i := range addrs {
		addrs[i] = h.c.Nodes[i].Addr6
	}
	word := func(rank, op, j int) uint64 { return rnd(seed, rank, op, j) >> 16 }
	want := make([][]uint64, warm+ops)
	for op := range want {
		want[op] = make([]uint64, allreduceWords)
		for rank := 0; rank < n; rank++ {
			for j := range want[op] {
				want[op][j] += word(rank, op, j)
			}
		}
	}
	for rank := 0; rank < n; rank++ {
		nic := h.c.Nodes[rank].QPIP
		h.spawn(rank, fmt.Sprintf("rank%d", rank), stagger(seed, rank), ops, func(p *sim.Proc, a *actor) {
			cq := verbs.NewCQ(nic, 64)
			q, err := verbs.NewCollQ(nic, 1, rank, addrs, cq)
			must(err)
			reduce := func(from, to int) {
				for op := from; op < to; op++ {
					// The adapter keeps the vector until the op completes.
					vec := make([]uint64, allreduceWords)
					for j := range vec {
						vec[j] = word(rank, op, j)
					}
					at := p.Now()
					must(q.PostAllreduce(p, uint64(op), vec))
					comp := cq.Wait(p)
					ok := comp.Status == verbs.StatusSuccess
					if ok {
						got := verbs.UnmarshalVec(comp.Payload)
						ok = len(got) == allreduceWords
						for j := 0; ok && j < allreduceWords; j++ {
							ok = got[j] == want[op][j]
						}
					}
					a.done(at, ok)
				}
			}
			a.gate()
			reduce(0, warm)
			a.start()
			reduce(warm, warm+ops)
		})
	}
}

// ---- sockets ----

// buildSockets is ttcp over the host TCP/IP stack and Gigabit Ethernet:
// blocking 16 KiB writes, TCP_NODELAY, 1500-byte MTU.
func buildSockets(h *harness, seed uint64, scale float64) {
	sends := scaled(socketsSends, scale)
	h.c = core.NewCluster(2, core.NodeConfig{GigE: true})
	const port = 7000
	h.spawn(1, "server", 0, 0, func(p *sim.Proc, a *actor) {
		lst := h.c.Nodes[1].Kernel.NewSocket(hostos.TCPSock)
		must(lst.Listen(port, 4))
		s := lst.Accept(p)
		recv := func(n int) {
			got, err := s.RecvFull(p, n*recordBytes)
			a.check(err == nil && got.Len() == n*recordBytes)
		}
		a.gate()
		recv(warmup(sends))
		a.start()
		recv(sends)
	})
	h.spawn(0, "client", stagger(seed, 0), sends, func(p *sim.Proc, a *actor) {
		s := h.c.Nodes[0].Kernel.NewSocket(hostos.TCPSock)
		s.SetNoDelay(true)
		must(s.Connect(p, h.c.Nodes[1].Addr4, port))
		send := func(n int) {
			for i := 0; i < n; i++ {
				at := p.Now()
				a.done(at, s.Send(p, buf.Virtual(recordBytes)) == nil)
			}
		}
		a.gate()
		send(warmup(sends))
		a.start()
		send(sends)
	})
}

// ---- per-layer counts ----

// layerCounts is a reading of the layers' public counters.
type layerCounts struct {
	segsOut, retransmits, slowPath, fastPath, windowProbes uint64
	rnr, stashed, frames, dropped                          uint64
	sram                                                   int
	nicBusy, hostBusy                                      []sim.Time
}

func readCounts(c *core.Cluster) layerCounts {
	var lc layerCounts
	for _, n := range c.Nodes {
		lc.hostBusy = append(lc.hostBusy, n.CPU.BusyTotal())
		if n.QPIP != nil {
			lc.nicBusy = append(lc.nicBusy, n.QPIP.CPU().BusyTotal())
			lc.stashed += n.QPIP.Stats().StashedRecords
			lc.sram += n.QPIP.SRAMFootprint()
			for _, cs := range n.QPIP.DebugConnStats() {
				lc.segsOut += cs.TCP.SegsOut
				lc.retransmits += cs.TCP.Retransmits
				lc.slowPath += cs.TCP.SlowPath
				lc.fastPath += cs.TCP.FastPathData + cs.TCP.FastPathAck
				lc.windowProbes += cs.TCP.WindowProbes
				lc.rnr += cs.RNR
			}
		}
		// The host stack exposes per-kernel, not per-connection, counters:
		// no input-path classes or window probes for the sockets workload.
		if n.Kernel != nil {
			ks := n.Kernel.Stats()
			lc.segsOut += ks.SegsOut
			lc.retransmits += ks.Retransmits
		}
	}
	for _, f := range []*fabric.Fabric{c.Myrinet, c.Eth} {
		if f != nil {
			sent, _, dropped := f.Stats()
			lc.frames, lc.dropped = lc.frames+sent, lc.dropped+dropped
		}
	}
	return lc
}

// since reports the counts accumulated after an earlier reading, under
// their per-layer metric names. sram is a level, not a count.
func (lc layerCounts) since(b layerCounts) map[string]float64 {
	m := map[string]float64{
		"tcp.segs_out":            float64(lc.segsOut - b.segsOut),
		"tcp.retransmits":         float64(lc.retransmits - b.retransmits),
		"tcp.window_probes":       float64(lc.windowProbes - b.windowProbes),
		"tcp.slow_path_share":     0,
		"qpipnic.rnr_stalls":      float64(lc.rnr - b.rnr),
		"qpipnic.stashed_records": float64(lc.stashed - b.stashed),
		"qpipnic.sram_bytes":      float64(lc.sram),
		"fabric.frames":           float64(lc.frames - b.frames),
		"fabric.dropped":          float64(lc.dropped - b.dropped),
	}
	slow, fast := lc.slowPath-b.slowPath, lc.fastPath-b.fastPath
	if slow+fast > 0 {
		m["tcp.slow_path_share"] = float64(slow) / float64(slow+fast)
	}
	return m
}

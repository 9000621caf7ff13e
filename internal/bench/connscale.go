package bench

import (
	"fmt"
	"strings"

	"repro/internal/buf"
	"repro/internal/core"
	"repro/internal/hostos"
	"repro/internal/nbd"
	"repro/internal/params"
	"repro/internal/qpipnic"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/verbs"
)

// This file is the PR-9 connection-density harness: how do per-connection
// memory and host CPU per request behave as the connection count sweeps
// 64 -> 8192? Three workloads (N->1 incast, RPC connection churn, a
// many-client NBD block service) run on four variants: QPIP with shared
// receive queues (the tentpole), QPIP with private per-QP receive queues
// (the A/B baseline), and the two host-based stacks. The SRQ claim is
// that receive-buffer memory scales with service concurrency instead of
// connection count; the host-stack rows show the kernel's per-socket
// buffer reservations that QPIP's adapter-resident state avoids.
//
// Accounting:
//   - adapter_sram_bytes: NIC.SRAMFootprint() — the per-connection TCB +
//     state-table slot + RNR stash bytes (params.SRAMConnBytes et al).
//   - host_mem_bytes: receive-buffer provisioning on the host (posted WR
//     capacity + WR descriptors + QP structs), or for the host stacks the
//     kernel's ConnMemBytes() (TCB + socket + snd/rcv buffer reservations).
//   - host_cpu_per_req_us: the server node's total CPU busy time divided
//     by requests served — it includes connection setup and completion
//     handling, which is exactly what scales (or doesn't) with density.
//
// Memory is snapshotted at the provisioned point (all connections up,
// all receive buffers posted) for incast and NBD; the churn workload
// instead reports the residual table state after the storm, which must
// not grow with cumulative connection count.

const (
	connPort     = 7800
	connMsgBytes = 1024
	connNBDRead  = 4096
	// connNBDBufCap is the request-buffer capacity an NBD server must
	// provision per receive: the largest write a client may send.
	connNBDBufCap = connNBDRead + 64
	// connChurnWorkers bounds concurrent connections during churn.
	connChurnWorkers = 64
)

// connPoolWRs sizes the shared receive pool: service concurrency, not
// connection count. This constant-size pool against a growing connection
// axis IS the SRQ memory story.
func connPoolWRs(conns, perConn int) int {
	pool := 256
	if conns*perConn < pool {
		pool = conns * perConn
	}
	return pool
}

// ConnRow is one (workload, variant, connection-count) measurement.
type ConnRow struct {
	Workload string
	Variant  string
	Conns    int
	Requests int
	// PerConnMemBytes = (adapter SRAM + host receive provisioning) / conns.
	PerConnMemBytes float64
	SRAMBytes       int
	HostMemBytes    int
	HostCPUPerReqUS float64
	ElapsedMS       float64
	// LiveEnd is the connection-table residency when the run ends: the
	// connection count for the steady workloads, ~0 after churn.
	LiveEnd int
	// RecycledQPNs counts adapter QPN reuse during churn (QPIP only).
	RecycledQPNs uint64
}

// ConnReport is the whole connection-density sweep.
type ConnReport struct {
	MsgsPerConn int
	Rows        []ConnRow
}

// ---- QPIP incast. ----

// connServer parks row.Conns server QPs on one listener at connPort, all
// completing into one receive CQ, and fills every receive pool with
// bufCap-byte buffers. With useSRQ the QPs share one pool of
// connPoolWRs(conns, perConn) WRs; without it each QP owns a perConn-deep
// pool. It records the provisioned memory in row: the adapter's SRAM,
// and on the host the pools' HostMemBytes plus one QP struct per
// connection.
func connServer(p *sim.Proc, nic *qpipnic.NIC, row *ConnRow, useSRQ bool, perConn, bufCap int) (qps []*verbs.QP, rcq, scq *verbs.CQ) {
	conns := row.Conns
	rcq = verbs.NewCQ(nic, row.Requests+8)
	scq = verbs.NewCQ(nic, 2*conns+8)
	qpCfg := verbs.QPConfig{Transport: verbs.Reliable, SendCQ: scq, RecvCQ: rcq, SendDepth: 4, RecvDepth: perConn}
	if useSRQ {
		srq, err := verbs.NewSRQ(nic, verbs.SRQConfig{Depth: connPoolWRs(conns, perConn)})
		if err != nil {
			panic(err)
		}
		qpCfg.SRQ = srq
	}
	lst, err := nic.Listen(connPort)
	if err != nil {
		panic(err)
	}
	qps = make([]*verbs.QP, conns)
	for i := range qps {
		qp, err := verbs.NewQP(nic, qpCfg)
		if err != nil {
			panic(err)
		}
		if err := lst.Post(qp); err != nil {
			panic(err)
		}
		qps[i] = qp
	}
	row.HostMemBytes = conns * params.HostQPBytes
	for i, qp := range qps {
		pool := qp.SRQ()
		if pool.Owner() == nil && i > 0 {
			continue // the shared pool, filled through the first QP
		}
		for k := 0; k < pool.Depth(); k++ {
			if err := pool.PostRecv(p, verbs.RecvWR{ID: uint64(k), Capacity: bufCap}); err != nil {
				panic(err)
			}
		}
		row.HostMemBytes += pool.HostMemBytes()
	}
	row.SRAMBytes = nic.SRAMFootprint()
	return qps, rcq, scq
}

// incastQPIP drives conns clients into one server adapter, each sending
// msgs messages of connMsgBytes. With useSRQ the server's receive
// buffers come from one shared pool reposted per completion; without it
// each QP pre-posts msgs private buffers.
func incastQPIP(conns, msgs int, useSRQ bool, prep ...func(*core.Cluster)) ConnRow {
	c := prepared(core.NewCluster(2, core.NodeConfig{QPIP: true, QPIPMaxQPs: conns + 64}), prep)
	nicC, nicS := c.Nodes[0].QPIP, c.Nodes[1].QPIP
	row := ConnRow{Conns: conns, Requests: conns * msgs}

	c.SpawnOn(1, "incast-server", func(p *sim.Proc) {
		qps, rcq, _ := connServer(p, nicS, &row, useSRQ, msgs, connMsgBytes)
		// Private pools already hold every message's buffer. Shared-pool
		// reposts are batched through PostRecvN: one doorbell per 16
		// claims. Late arrivals ride the RNR stash until the batch posts.
		repost := make([]verbs.RecvWR, 0, 16)
		for got := 0; got < conns*msgs; got++ {
			comp := rcq.Wait(p)
			if comp.Status != verbs.StatusSuccess {
				panic(fmt.Sprintf("incast recv: %v", comp.Status))
			}
			if useSRQ {
				repost = append(repost, verbs.RecvWR{ID: 0, Capacity: connMsgBytes})
				if len(repost) == cap(repost) {
					if _, err := qps[0].SRQ().PostRecvN(p, repost); err != nil {
						panic(err)
					}
					repost = repost[:0]
				}
			}
		}
		// Snapshot at the last served request: engine spin-down (timer
		// horizons, close handshakes) must not pollute the metrics.
		row.HostCPUPerReqUS = c.Nodes[1].CPU.BusyTotal().Micros() / float64(row.Requests)
		row.ElapsedMS = p.Now().Micros() / 1000
	})
	for ci := 0; ci < conns; ci++ {
		c.SpawnOn(0, fmt.Sprintf("incast-cli%d", ci), func(p *sim.Proc) {
			scq := verbs.NewCQ(nicC, 2*msgs)
			rcq := verbs.NewCQ(nicC, 2)
			qp, err := verbs.NewQP(nicC, verbs.QPConfig{
				Transport: verbs.Reliable, SendCQ: scq, RecvCQ: rcq,
				SendDepth: msgs + 1, RecvDepth: 1,
			})
			if err != nil {
				panic(err)
			}
			if err := qp.Connect(p, c.Nodes[1].Addr6, connPort); err != nil {
				panic(err)
			}
			for m := 0; m < msgs; m++ {
				if err := qp.PostSend(p, verbs.SendWR{ID: uint64(m), Payload: buf.Virtual(connMsgBytes)}); err != nil {
					panic(err)
				}
			}
			for m := 0; m < msgs; m++ {
				scq.Wait(p)
			}
		})
	}
	c.Run()
	row.LiveEnd = nicS.LiveQPs()
	row.PerConnMemBytes = float64(row.SRAMBytes+row.HostMemBytes) / float64(conns)
	return row
}

// incastSock is the host-stack incast: conns sockets into one kernel.
func incastSock(kind StackKind, conns, msgs int) ConnRow {
	c := core.NewCluster(2, kind.hostConfig())
	k := c.Nodes[1].Kernel
	row := ConnRow{Conns: conns, Requests: conns * msgs}

	c.SpawnOn(1, "incast-server", func(p *sim.Proc) {
		lst := k.NewSocket(hostos.TCPSock)
		if err := lst.Listen(connPort, conns); err != nil {
			panic(err)
		}
		children := make([]*hostos.Socket, conns)
		for i := range children {
			children[i] = lst.Accept(p)
		}
		// All connections established: snapshot the kernel's committed
		// per-socket memory before draining.
		row.HostMemBytes = k.ConnMemBytes()
		for _, s := range children {
			if _, err := s.RecvFull(p, msgs*connMsgBytes); err != nil {
				panic(err)
			}
		}
		row.LiveEnd = k.LiveConns()
		row.HostCPUPerReqUS = k.CPU().BusyTotal().Micros() / float64(row.Requests)
		row.ElapsedMS = p.Now().Micros() / 1000
		for _, s := range children {
			s.Close(p)
		}
	})
	for ci := 0; ci < conns; ci++ {
		c.SpawnOn(0, fmt.Sprintf("incast-cli%d", ci), func(p *sim.Proc) {
			s := c.Nodes[0].Kernel.NewSocket(hostos.TCPSock)
			s.SetNoDelay(true)
			if err := s.Connect(p, c.Nodes[1].Addr4, connPort); err != nil {
				panic(err)
			}
			for m := 0; m < msgs; m++ {
				if err := s.Send(p, buf.Virtual(connMsgBytes)); err != nil {
					panic(err)
				}
			}
			s.Close(p)
		})
	}
	c.RunFor(300 * sim.Second)
	row.PerConnMemBytes = float64(row.HostMemBytes) / float64(conns)
	return row
}

// ---- Connection churn. ----

// churnQPIP cycles conns short-lived RPC connections (one 1 KB request
// each) through connChurnWorkers concurrent worker pairs, exercising QPN
// recycling, state-table slot reuse and demux-table reaping. Each worker
// pair owns a private port and keeps one connection pipelined ahead so
// no SYN ever finds the listener without a parked QP.
func churnQPIP(conns int, useSRQ bool) ConnRow {
	w := connChurnWorkers
	if conns < w {
		w = conns
	}
	c := core.NewCluster(2, core.NodeConfig{QPIP: true, QPIPMaxQPs: 4*w + 64})
	nicC, nicS := c.Nodes[0].QPIP, c.Nodes[1].QPIP
	row := ConnRow{Conns: conns, Requests: conns}

	var srq *verbs.SRQ
	if useSRQ {
		var err error
		srq, err = verbs.NewSRQ(nicS, verbs.SRQConfig{Depth: 2 * w})
		if err != nil {
			panic(err)
		}
	}
	workerRounds := func(i int) int {
		r := conns / w
		if i < conns%w {
			r++
		}
		return r
	}
	served := 0
	for i := 0; i < w; i++ {
		i := i
		rounds := workerRounds(i)
		port := uint16(connPort + i)
		c.SpawnOn(1, fmt.Sprintf("churn-srv%d", i), func(p *sim.Proc) {
			scq := verbs.NewCQ(nicS, 8)
			rcq := verbs.NewCQ(nicS, 8)
			lst, err := nicS.Listen(port)
			if err != nil {
				panic(err)
			}
			if useSRQ {
				// Worker 0 provisions the shared pool.
				if i == 0 {
					for b := 0; b < 2*w; b++ {
						if err := srq.PostRecv(p, verbs.RecvWR{ID: uint64(b), Capacity: connMsgBytes}); err != nil {
							panic(err)
						}
					}
				}
			}
			newQP := func() *verbs.QP {
				qpCfg := verbs.QPConfig{Transport: verbs.Reliable, SendCQ: scq, RecvCQ: rcq, SendDepth: 2}
				if useSRQ {
					qpCfg.SRQ = srq
				} else {
					qpCfg.RecvDepth = 2
				}
				qp, err := verbs.NewQP(nicS, qpCfg)
				if err != nil {
					panic(err)
				}
				if err := lst.Post(qp); err != nil {
					panic(err)
				}
				return qp
			}
			// Keep one connection ahead of the client so round r+1's SYN
			// always finds a parked QP.
			pending := make([]*verbs.QP, 0, 2)
			for r := 0; r < rounds && r < 2; r++ {
				pending = append(pending, newQP())
			}
			for r := 0; r < rounds; r++ {
				qp := pending[0]
				pending = pending[1:]
				if err := qp.WaitEstablished(p); err != nil {
					panic(err)
				}
				if r+2 < rounds {
					pending = append(pending, newQP())
				}
				if !useSRQ {
					if err := qp.PostRecv(p, verbs.RecvWR{ID: 1, Capacity: connMsgBytes}); err != nil {
						panic(err)
					}
				}
				comp := rcq.Wait(p)
				if comp.Status != verbs.StatusSuccess {
					panic(fmt.Sprintf("churn recv: %v", comp.Status))
				}
				if useSRQ {
					if err := srq.PostRecv(p, verbs.RecvWR{ID: 1, Capacity: connMsgBytes}); err != nil {
						panic(err)
					}
				}
				if served++; served == conns {
					// Last request in: snapshot before the reaped-peer
					// retransmit tails stretch the engine's spin-down.
					row.HostCPUPerReqUS = c.Nodes[1].CPU.BusyTotal().Micros() / float64(conns)
					row.ElapsedMS = p.Now().Micros() / 1000
				}
				qp.Close()
			}
		})
	}
	for i := 0; i < w; i++ {
		i := i
		rounds := workerRounds(i)
		port := uint16(connPort + i)
		c.SpawnOn(0, fmt.Sprintf("churn-cli%d", i), func(p *sim.Proc) {
			scq := verbs.NewCQ(nicC, 8)
			rcq := verbs.NewCQ(nicC, 8)
			for r := 0; r < rounds; r++ {
				qp, err := verbs.NewQP(nicC, verbs.QPConfig{
					Transport: verbs.Reliable, SendCQ: scq, RecvCQ: rcq,
					SendDepth: 2, RecvDepth: 1,
				})
				if err != nil {
					panic(err)
				}
				if err := qp.Connect(p, c.Nodes[1].Addr6, port); err != nil {
					panic(err)
				}
				if err := qp.PostSend(p, verbs.SendWR{ID: 1, Payload: buf.Virtual(connMsgBytes)}); err != nil {
					panic(err)
				}
				scq.Wait(p)
				qp.Close()
			}
		})
	}
	c.Run()
	row.LiveEnd = nicS.LiveConns()
	row.SRAMBytes = nicS.SRAMFootprint()
	if useSRQ {
		row.HostMemBytes = srq.HostMemBytes()
	}
	row.RecycledQPNs = nicS.Net.Get("qpn.recycled") + nicC.Net.Get("qpn.recycled")
	row.PerConnMemBytes = float64(row.SRAMBytes+row.HostMemBytes) / float64(conns)
	return row
}

// churnSock cycles conns short-lived socket connections through worker
// pairs — the kernel's port-allocation and demux-table reaping under the
// same storm.
func churnSock(kind StackKind, conns int) ConnRow {
	w := connChurnWorkers
	if conns < w {
		w = conns
	}
	c := core.NewCluster(2, kind.hostConfig())
	k := c.Nodes[1].Kernel
	row := ConnRow{Conns: conns, Requests: conns}

	workerRounds := func(i int) int {
		r := conns / w
		if i < conns%w {
			r++
		}
		return r
	}
	served := 0
	for i := 0; i < w; i++ {
		i := i
		rounds := workerRounds(i)
		port := uint16(connPort + i)
		c.SpawnOn(1, fmt.Sprintf("churn-srv%d", i), func(p *sim.Proc) {
			lst := k.NewSocket(hostos.TCPSock)
			if err := lst.Listen(port, 8); err != nil {
				panic(err)
			}
			for r := 0; r < rounds; r++ {
				s := lst.Accept(p)
				if _, err := s.RecvFull(p, connMsgBytes); err != nil {
					panic(err)
				}
				if served++; served == conns {
					row.HostCPUPerReqUS = k.CPU().BusyTotal().Micros() / float64(conns)
					row.ElapsedMS = p.Now().Micros() / 1000
				}
				s.Close(p)
			}
		})
		c.SpawnOn(0, fmt.Sprintf("churn-cli%d", i), func(p *sim.Proc) {
			for r := 0; r < rounds; r++ {
				s := c.Nodes[0].Kernel.NewSocket(hostos.TCPSock)
				s.SetNoDelay(true)
				if err := s.Connect(p, c.Nodes[1].Addr4, port); err != nil {
					panic(err)
				}
				if err := s.Send(p, buf.Virtual(connMsgBytes)); err != nil {
					panic(err)
				}
				s.Close(p)
			}
		})
	}
	c.RunFor(600 * sim.Second)
	row.LiveEnd = k.LiveConns()
	row.HostMemBytes = k.ConnMemBytes()
	row.PerConnMemBytes = float64(row.HostMemBytes) / float64(conns)
	return row
}

// ---- Many-client NBD. ----

// nbdConnQPIP serves conns NBD clients (msgs 4 KB reads each) from one
// adapter. Both QPIP variants run the same flat request/reply server off
// one shared receive CQ; they differ only in where request buffers live:
// a shared pool (SRQ) or 2 private buffers per QP, each sized for the
// largest request a client may send.
func nbdConnQPIP(conns, msgs int, useSRQ bool, prep ...func(*core.Cluster)) ConnRow {
	c := prepared(core.NewCluster(2, core.NodeConfig{QPIP: true, QPIPMaxQPs: conns + 64}), prep)
	nicC, nicS := c.Nodes[0].QPIP, c.Nodes[1].QPIP
	disk := storage.NewDisk(c.EngineOf(1), "connscale.disk", int64(conns)*int64(msgs)*connNBDRead+(64<<20))
	dev := &storage.LocalDev{D: disk}
	row := ConnRow{Conns: conns, Requests: conns * msgs}

	c.SpawnOn(1, "nbd-server", func(p *sim.Proc) {
		qps, rcq, scq := connServer(p, nicS, &row, useSRQ, 2, connNBDBufCap)
		byQPN := make(map[uint32]*verbs.QP, conns)
		for _, qp := range qps {
			byQPN[qp.QPN] = qp
		}
		for served := 0; served < conns*msgs; served++ {
			comp := rcq.Wait(p)
			if comp.Status != verbs.StatusSuccess {
				panic(fmt.Sprintf("nbd server recv: %v", comp.Status))
			}
			req, err := nbd.ParseRequest(comp.Payload)
			if err != nil {
				panic(err)
			}
			data, err := dev.Read(p, int64(req.Offset), int(req.Length))
			if err != nil {
				panic(err)
			}
			qp := byQPN[comp.QPN]
			reply := buf.Concat(buf.Bytes(nbd.MarshalReply(&nbd.Reply{Handle: req.Handle})), data)
			if err := qp.PostSend(p, verbs.SendWR{ID: req.Handle, Payload: reply}); err != nil {
				panic(err)
			}
			if err := qp.SRQ().PostRecv(p, verbs.RecvWR{ID: 0, Capacity: connNBDBufCap}); err != nil {
				panic(err)
			}
			// Reap send completions lazily; depth 4 rides out the lag.
			for {
				if _, ok := scq.Poll(p); !ok {
					break
				}
			}
		}
		row.HostCPUPerReqUS = c.Nodes[1].CPU.BusyTotal().Micros() / float64(row.Requests)
		row.ElapsedMS = p.Now().Micros() / 1000
	})
	for ci := 0; ci < conns; ci++ {
		ci := ci
		c.SpawnOn(0, fmt.Sprintf("nbd-cli%d", ci), func(p *sim.Proc) {
			scq := verbs.NewCQ(nicC, 8)
			rcq := verbs.NewCQ(nicC, 8)
			qp, err := verbs.NewQP(nicC, verbs.QPConfig{
				Transport: verbs.Reliable, SendCQ: scq, RecvCQ: rcq,
				SendDepth: 2, RecvDepth: 2,
			})
			if err != nil {
				panic(err)
			}
			if err := qp.Connect(p, c.Nodes[1].Addr6, connPort); err != nil {
				panic(err)
			}
			for m := 0; m < 2; m++ {
				if err := qp.PostRecv(p, verbs.RecvWR{ID: uint64(m), Capacity: connNBDRead + 64}); err != nil {
					panic(err)
				}
			}
			for m := 0; m < msgs; m++ {
				off := (int64(ci)*int64(msgs) + int64(m)) * connNBDRead
				req := nbd.Request{Type: nbd.CmdRead, Handle: uint64(ci)<<16 | uint64(m), Offset: uint64(off), Length: connNBDRead}
				if err := qp.PostSend(p, verbs.SendWR{ID: uint64(m), Payload: buf.Bytes(nbd.MarshalRequest(&req))}); err != nil {
					panic(err)
				}
				comp := rcq.Wait(p)
				if comp.Status != verbs.StatusSuccess || comp.ByteLen != nbd.ReplyLen+connNBDRead {
					panic(fmt.Sprintf("nbd reply: %v len %d", comp.Status, comp.ByteLen))
				}
				if err := qp.PostRecv(p, verbs.RecvWR{ID: 99, Capacity: connNBDRead + 64}); err != nil {
					panic(err)
				}
				scq.Wait(p)
			}
		})
	}
	c.Run()
	row.LiveEnd = nicS.LiveQPs()
	row.PerConnMemBytes = float64(row.SRAMBytes+row.HostMemBytes) / float64(conns)
	return row
}

// nbdConnSock is the host-stack NBD block service at conns clients.
func nbdConnSock(kind StackKind, conns, msgs int) ConnRow {
	c := core.NewCluster(2, kind.hostConfig())
	k := c.Nodes[1].Kernel
	disk := storage.NewDisk(c.EngineOf(1), "connscale.disk", int64(conns)*int64(msgs)*connNBDRead+(64<<20))
	dev := &storage.LocalDev{D: disk}
	row := ConnRow{Conns: conns, Requests: conns * msgs}

	served := 0
	c.SpawnOn(1, "nbd-server", func(p *sim.Proc) {
		lst := k.NewSocket(hostos.TCPSock)
		if err := lst.Listen(connPort, conns); err != nil {
			panic(err)
		}
		for i := 0; i < conns; i++ {
			s := lst.Accept(p)
			s.SetNoDelay(true)
			c.SpawnOn(1, fmt.Sprintf("nbd-srv-conn%d", i), func(hp *sim.Proc) {
				for {
					hdr, err := s.RecvFull(hp, nbd.RequestLen)
					if err != nil {
						return // client closed
					}
					req, err := nbd.ParseRequest(hdr)
					if err != nil {
						panic(err)
					}
					data, err := dev.Read(hp, int64(req.Offset), int(req.Length))
					if err != nil {
						panic(err)
					}
					if err := s.Send(hp, buf.Bytes(nbd.MarshalReply(&nbd.Reply{Handle: req.Handle}))); err != nil {
						return
					}
					if err := s.Send(hp, data); err != nil {
						return
					}
					if served++; served == row.Requests {
						row.HostCPUPerReqUS = k.CPU().BusyTotal().Micros() / float64(row.Requests)
						row.ElapsedMS = hp.Now().Micros() / 1000
					}
				}
			})
			if i == conns-1 {
				row.HostMemBytes = k.ConnMemBytes()
				row.LiveEnd = k.LiveConns()
			}
		}
	})
	for ci := 0; ci < conns; ci++ {
		ci := ci
		c.SpawnOn(0, fmt.Sprintf("nbd-cli%d", ci), func(p *sim.Proc) {
			s := c.Nodes[0].Kernel.NewSocket(hostos.TCPSock)
			s.SetNoDelay(true)
			if err := s.Connect(p, c.Nodes[1].Addr4, connPort); err != nil {
				panic(err)
			}
			for m := 0; m < msgs; m++ {
				off := (int64(ci)*int64(msgs) + int64(m)) * connNBDRead
				req := nbd.Request{Type: nbd.CmdRead, Handle: uint64(ci)<<16 | uint64(m), Offset: uint64(off), Length: connNBDRead}
				if err := s.Send(p, buf.Bytes(nbd.MarshalRequest(&req))); err != nil {
					panic(err)
				}
				if _, err := s.RecvFull(p, nbd.ReplyLen); err != nil {
					panic(err)
				}
				if _, err := s.RecvFull(p, connNBDRead); err != nil {
					panic(err)
				}
			}
			s.Close(p)
		})
	}
	c.RunFor(600 * sim.Second)
	row.PerConnMemBytes = float64(row.HostMemBytes) / float64(conns)
	return row
}

// ---- Sweep and report. ----

// connWorkloads are the sweep's workloads, in report order.
var connWorkloads = []string{"incast", "churn", "nbd"}

// connVariant is one stack of the sweep.
type connVariant struct {
	name   string
	kind   StackKind
	useSRQ bool // QPIP receive buffers in one shared pool
}

// connVariants are the sweep's stacks, in report order.
var connVariants = []connVariant{
	{"qpip-srq", QPIP, true}, {"qpip-priv", QPIP, false},
	{"ip-gige", IPGigE, false}, {"ip-myrinet", IPMyrinet, false},
}

// connPoint runs one sweep point.
func connPoint(workload string, v connVariant, conns, msgs int) ConnRow {
	var row ConnRow
	qpip := v.kind == QPIP
	switch {
	case workload == "incast" && qpip:
		row = incastQPIP(conns, msgs, v.useSRQ)
	case workload == "incast":
		row = incastSock(v.kind, conns, msgs)
	case workload == "churn" && qpip:
		row = churnQPIP(conns, v.useSRQ)
	case workload == "churn":
		row = churnSock(v.kind, conns)
	case qpip:
		row = nbdConnQPIP(conns, msgs, v.useSRQ)
	default:
		row = nbdConnSock(v.kind, conns, msgs)
	}
	row.Workload, row.Variant = workload, v.name
	return row
}

// Connscale runs the full connection-density sweep. counts is the
// connection-count axis (default 64..8192); msgs is requests per
// connection for incast and NBD (churn always does one per connection).
func Connscale(counts []int, msgs int) ConnReport {
	if len(counts) == 0 {
		counts = []int{64, 512, 2048, 8192}
	}
	if msgs <= 0 {
		msgs = 4
	}
	type point struct {
		w     string
		v     connVariant
		conns int
	}
	var pts []point
	for _, w := range connWorkloads {
		for _, v := range connVariants {
			for _, n := range counts {
				pts = append(pts, point{w, v, n})
			}
		}
	}
	rep := ConnReport{MsgsPerConn: msgs, Rows: make([]ConnRow, len(pts))}
	sweep(len(pts), func(i int) {
		rep.Rows[i] = connPoint(pts[i].w, pts[i].v, pts[i].conns, msgs)
	})
	return rep
}

// RenderConnscale formats the sweep for the terminal.
func RenderConnscale(r ConnReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Connection density: per-connection memory and host CPU per request\n")
	fmt.Fprintf(&b, "(%d msgs/conn; incast %d B messages, nbd %d B reads; churn is 1 rpc/conn)\n",
		r.MsgsPerConn, connMsgBytes, connNBDRead)
	for _, w := range connWorkloads {
		fmt.Fprintf(&b, "\n-- %s --\n", w)
		fmt.Fprintf(&b, "%-11s %6s %9s %12s %12s %12s %11s %8s %9s\n",
			"variant", "conns", "requests", "mem/conn (B)", "sram (B)", "host (B)", "cpu/req(us)", "live@end", "t (ms)")
		for _, row := range r.Rows {
			if row.Workload != w {
				continue
			}
			extra := ""
			if row.RecycledQPNs > 0 {
				extra = fmt.Sprintf("  recycled=%d", row.RecycledQPNs)
			}
			fmt.Fprintf(&b, "%-11s %6d %9d %12.0f %12d %12d %11.2f %8d %9.1f%s\n",
				row.Variant, row.Conns, row.Requests, row.PerConnMemBytes,
				row.SRAMBytes, row.HostMemBytes, row.HostCPUPerReqUS,
				row.LiveEnd, row.ElapsedMS, extra)
		}
	}
	return b.String()
}

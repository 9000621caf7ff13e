package main

import (
	"sort"
	"time"

	"repro/internal/buf"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/hostos"
	"repro/internal/inet"
	"repro/internal/params"
	"repro/internal/sim"
	"repro/internal/sim/par"
	"repro/internal/tcp"
	"repro/internal/topo"
	"repro/internal/verbs"
)

// The layer probes: one isolated loop per layer operation, driven through
// the layer's public functions only, so a per-layer cost can be read
// without the workloads around it. README.md says which end-to-end metric
// on which workload each probe should move. None touches the process-wide
// A/B switches (legacy queue, pooling, per-token boundary).

// perLayer is every metric a traced run reports, in report order.
var perLayer = []metricDef{
	// Probes: host nanoseconds per operation.
	{name: "sim.schedule_fire_ns", unit: "ns"},
	{name: "sim.timer_cancel_ns", unit: "ns"},
	{name: "sim.timer_churn_ns", unit: "ns"},
	{name: "sim.server_do_ns", unit: "ns"},
	{name: "sim.proc_switch_ns", unit: "ns"},
	{name: "verbs.poll_empty_ns", unit: "ns"},
	{name: "par.epoch_ns", unit: "ns"},
	{name: "inet.sum_ns_per_kb", unit: "ns/KiB"},
	{name: "inet.header6_ns", unit: "ns"},
	{name: "tcp.segment_codec_ns", unit: "ns"},
	{name: "tcp.record_roundtrip_ns", unit: "ns"},
	{name: "tcp.stream_roundtrip_ns", unit: "ns"},
	{name: "fabric.star_transit_ns", unit: "ns"},
	{name: "fabric.sf_transit_ns", unit: "ns"},
	{name: "fabric.topo_transit_ns", unit: "ns"},
	{name: "qpipnic.msg_path_ns", unit: "ns"},
	{name: "qpipnic.msg_path_events", unit: "count"}, // plus a per-batch constant ÷ batch size
	{name: "qpipnic.create_qp_ns", unit: "ns"},
	{name: "hostos.sock_msg_path_ns", unit: "ns"},
	// Host-time shares of the traced timed region (sum to 1).
	{name: "share.sim", unit: "share"},
	{name: "share.par", unit: "share"},
	{name: "share.tcp", unit: "share"},
	{name: "share.inet", unit: "share"},
	{name: "share.fabric", unit: "share"},
	{name: "share.hw", unit: "share"},
	{name: "share.qpipnic", unit: "share"},
	{name: "share.verbs", unit: "share"},
	{name: "share.hostos", unit: "share"},
	{name: "share.gige", unit: "share"},
	{name: "share.buf_pool_wire", unit: "share"},
	{name: "share.driver", unit: "share"},
	{name: "share.rt_sched", unit: "share"},
	{name: "share.rt_mem", unit: "share"},
	{name: "share.other", unit: "share"},
	// Slice timing of the traced timed region.
	{name: "run.ns_per_event_p50", unit: "ns"},
	{name: "run.ns_per_event_p99", unit: "ns"},
	{name: "run.slices", unit: "count"},
	{name: "trace.overhead_share", unit: "share"},
	{name: "sim.events_per_s", unit: "1/s", higherBetter: true},
	// Exact results of the simulated design and exact per-layer counts over
	// the timed region: identical for every run of one seed.
	{name: "sim_elapsed_ms", unit: "sim_ms", exact: true},
	{name: "sim_lat_us_p50", unit: "sim_us", exact: true},
	{name: "sim_lat_us_p99", unit: "sim_us", exact: true},
	{name: "sim_lat_high_pct", unit: "%", exact: true},
	{name: "sim_lat_samples", unit: "count", higherBetter: true, exact: true},
	{name: "sim.events", unit: "count", exact: true},
	{name: "sim.events_per_op", unit: "count", exact: true},
	{name: "tcp.segs_out", unit: "count", exact: true},
	{name: "tcp.retransmits", unit: "count", exact: true},
	{name: "tcp.slow_path_share", unit: "share", exact: true},
	{name: "tcp.window_probes", unit: "count", exact: true},
	{name: "qpipnic.rnr_stalls", unit: "count", exact: true},
	{name: "qpipnic.stashed_records", unit: "count", exact: true},
	{name: "qpipnic.sram_bytes", unit: "B", exact: true},
	{name: "qpipnic.fw_cpu_util", unit: "share", exact: true},
	{name: "host.cpu_util", unit: "share", exact: true},
	{name: "fabric.frames", unit: "count", exact: true},
	{name: "fabric.dropped", unit: "count", exact: true},
	// Allocation and collector behaviour over the untraced timed region.
	{name: "allocs_per_op", unit: "1/op"},
	{name: "alloc_bytes_per_op", unit: "B/op"},
	{name: "rt.gc_cycles", unit: "count"},
	{name: "rt.gc_pause_ms", unit: "ms"},
	{name: "rt.heap_sys_mb", unit: "MB"},
}

// probeBatches is how many timed batches a probe's median rests on.
const probeBatches = 5

// timeOp reports the median host ns per operation of op, which performs n
// operations per call: n is grown until one call lasts about batch, then
// probeBatches calls are timed.
func timeOp(batch time.Duration, op func(n int)) float64 {
	n := 1
	for {
		t := time.Now()
		op(n)
		d := time.Since(t)
		if d >= batch/2 || n >= 1<<30 {
			break
		}
		if d < batch/64 {
			n *= 8
		} else {
			n = int(float64(n)*float64(batch)/float64(d)) + 1
		}
	}
	per := make([]float64, probeBatches)
	for i := range per {
		t := time.Now()
		op(n)
		per[i] = float64(time.Since(t)) / float64(n)
	}
	sort.Float64s(per)
	return per[probeBatches/2]
}

func nop() {}

// sink keeps the compiler from discarding a probe's result.
var sink uint32

// runProbes measures every layer probe with batches of the given length.
func runProbes(batch time.Duration) map[string]float64 {
	if batch < time.Millisecond {
		batch = time.Millisecond
	}
	v := map[string]float64{}

	// ---- sim ----
	eng := sim.NewEngine()
	v["sim.schedule_fire_ns"] = timeOp(batch, func(n int) {
		for i := 0; i < n; i++ {
			eng.After(sim.Time(i%1000), "probe", nop)
			if i%1000 == 999 {
				eng.RunFor(1000)
			}
		}
		eng.Run()
	})
	v["sim.timer_cancel_ns"] = timeOp(batch, func(n int) {
		for i := 0; i < n; i++ {
			eng.After(sim.Time(1000+i%777), "probe", nop).Cancel()
		}
	})
	// The tcp timer pattern at connection density: 4096 standing far
	// deadlines, the oldest cancelled and re-armed while near events fire.
	var live [4096]*sim.Event
	for i := range live {
		live[i] = eng.After(200*sim.Millisecond, "rexmt", nop)
	}
	v["sim.timer_churn_ns"] = timeOp(batch, func(n int) {
		for i := 0; i < n; i++ {
			live[i%len(live)].Cancel()
			live[i%len(live)] = eng.After(200*sim.Millisecond, "rexmt", nop)
			eng.After(1, "work", nop)
			eng.RunFor(1)
		}
	})
	for _, ev := range live {
		ev.Cancel()
	}
	srv := sim.NewServer(eng, "probe")
	v["sim.server_do_ns"] = timeOp(batch, func(n int) {
		for i := 0; i < n; i++ {
			srv.Do(10, "probe", nop)
			if i%64 == 63 {
				eng.Run()
			}
		}
		eng.Run()
	})
	v["sim.proc_switch_ns"] = timeOp(batch, func(n int) {
		eng.Spawn("probe", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(1)
			}
		})
		eng.Run()
	})

	// ---- sim/par: two bare engines ticking once per lookahead window, so
	// every epoch fires one event per shard and pays one barrier.
	const lookahead = 400 * sim.Nanosecond
	engs := []*sim.Engine{sim.NewEngine(), sim.NewEngine()}
	v["par.epoch_ns"] = timeOp(batch, func(n int) {
		for _, e := range engs {
			left := n
			var tick func()
			tick = func() {
				if left--; left > 0 {
					e.After(lookahead, "tick", tick)
				}
			}
			e.After(lookahead, "tick", tick)
		}
		par.Run(par.Config{Engines: engs, Lookahead: lookahead, Exchange: func() int { return 0 }})
	})

	// ---- inet ----
	block := buf.Pattern(recordBytes, 0x5a).Data()
	v["inet.sum_ns_per_kb"] = timeOp(batch, func(n int) {
		for i := 0; i < n; i++ {
			sink += inet.Sum(0, block)
		}
	}) / (recordBytes / 1024)
	h6 := inet.Header6{PayloadLength: 1024, NextHeader: 6, HopLimit: 64, Src: inet.NodeAddr6(0), Dst: inet.NodeAddr6(1)}
	var scratch [64]byte
	v["inet.header6_ns"] = timeOp(batch, func(n int) {
		for i := 0; i < n; i++ {
			got, err := inet.Parse6(inet.Marshal6Into(&h6, scratch[:]))
			must(err)
			sink += uint32(got.HopLimit)
		}
	})

	// ---- tcp ----
	seg := tcp.Segment{
		SrcPort: 1000, DstPort: 2000, Seq: 12345, Ack: 67890, Flags: tcp.ACK | tcp.PSH, Wnd: 4096,
		HasTS: true, TSVal: 111, TSEcr: 222, WScale: -1, Payload: buf.Virtual(4096),
	}
	v["tcp.segment_codec_ns"] = timeOp(batch, func(n int) {
		for i := 0; i < n; i++ {
			got, _, err := tcp.ParseHeader(seg.MarshalHeaderInto(scratch[:]))
			must(err)
			sink += uint32(got.Wnd)
		}
	})
	now := int64(2_000_000_000)
	for _, mode := range []tcp.Mode{tcp.Record, tcp.Stream} {
		name, size := "tcp.record_roundtrip_ns", 4096
		if mode == tcp.Stream {
			name, size = "tcp.stream_roundtrip_ns", 1460
		}
		client, server := tcpPair(mode)
		payload := buf.Pattern(size, 0x5a)
		v[name] = timeOp(batch, func(n int) {
			for i := 0; i < n; i++ {
				tcpRoundtrip(client, server, payload, mode, now)
				now += 20_000
			}
		})
	}

	// ---- fabric: one frame's full trip, including the engine work that
	// carries it. The fabric owns a frame from Send to its last delivery.
	myri := fabric.Config{
		Name: "probe", Bandwidth: params.MyrinetBandwidth, LinkOverhead: params.MyrinetHeaderBytes,
		CutThrough: true, HopLatency: params.MyrinetHopLatency, PropDelay: params.CableLatency,
	}
	eth := fabric.Config{
		Name: "probe", Bandwidth: params.GigEBandwidth, MTU: params.MTUEthernet,
		LinkOverhead: params.EthernetOverhead, HopLatency: params.GigESwitchLatency, PropDelay: params.CableLatency,
	}
	// Arity-4 fat tree over 8 endpoints: 0 and 7 sit on different leaves,
	// so the route is leaf, spine, leaf.
	tree := myri
	tree.Topo = topo.Build(topo.Spec{Kind: topo.FatTree}, 8)
	for _, fp := range []struct {
		name  string
		cfg   fabric.Config
		ports int
	}{
		{"fabric.star_transit_ns", myri, 2},
		{"fabric.sf_transit_ns", eth, 2},
		{"fabric.topo_transit_ns", tree, 8},
	} {
		e := sim.NewEngine()
		fab := fabric.New(e, fp.cfg)
		delivered := 0
		for i := 0; i < fp.ports; i++ {
			fab.Attach(func(*fabric.Frame) { delivered++ })
		}
		v[fp.name] = timeOp(batch, func(n int) {
			for i := 0; i < n; i++ {
				fab.Send(fabric.NewFrame(0, fp.ports-1, 1500, nil), nil)
				e.Run()
			}
		})
		if delivered == 0 {
			panic("benchmark: " + fp.name + ": no frame was delivered")
		}
	}

	// ---- qpipnic + verbs: an idle reliable pair exchanging 1-byte
	// messages, each side blocking in Wait; one op is one message.
	qc := core.NewCluster(2, core.NodeConfig{QPIP: true})
	var qps [2]*verbs.QP
	var rcqs [2]*verbs.CQ
	qc.Spawn("listen", func(p *sim.Proc) {
		qps[1], _, rcqs[1] = newRC(qc.Nodes[1], 8)
		lst, err := qc.Nodes[1].QPIP.Listen(7000)
		must(err)
		must(lst.Post(qps[1]))
		must(qps[1].WaitEstablished(p))
	})
	qc.Spawn("connect", func(p *sim.Proc) {
		qps[0], _, rcqs[0] = newRC(qc.Nodes[0], 8)
		must(qps[0].Connect(p, qc.Nodes[1].Addr6, 7000))
	})
	qc.Run()
	var msgs, events uint64
	v["qpipnic.msg_path_ns"] = timeOp(batch, func(n int) {
		fired := qc.FiredTotal()
		for side := 0; side < 2; side++ {
			qc.Spawn("pingpong", func(p *sim.Proc) {
				qp, rcq := qps[side], rcqs[side]
				for i := 0; i < n; i++ {
					must(qp.PostRecv(p, verbs.RecvWR{Capacity: 64}))
					if side == 0 {
						must(qp.PostSend(p, verbs.SendWR{Payload: buf.Virtual(1)}))
					}
					rcq.Wait(p)
					if side == 1 {
						must(qp.PostSend(p, verbs.SendWR{Payload: buf.Virtual(1)}))
					}
				}
			})
		}
		qc.Run()
		msgs, events = uint64(2*n), qc.FiredTotal()-fired
	}) / 2
	v["qpipnic.msg_path_events"] = float64(events) / float64(msgs)
	idle := verbs.NewCQ(qc.Nodes[0].QPIP, 8)
	v["verbs.poll_empty_ns"] = timeOp(batch, func(n int) {
		qc.Spawn("poll", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				if _, ok := idle.Poll(p); ok {
					panic("benchmark: completion on an idle CQ")
				}
			}
		})
		qc.Run()
	})

	// ---- qpipnic state table at incast density: create and destroy one
	// QP beside 8192 live ones.
	dense := core.NewCluster(1, core.NodeConfig{QPIP: true, QPIPMaxQPs: incastConns + 64})
	nic := dense.Nodes[0].QPIP
	cq := verbs.NewCQ(nic, 8)
	qpCfg := verbs.QPConfig{Transport: verbs.Reliable, SendCQ: cq, RecvCQ: cq, SendDepth: 2, RecvDepth: 2}
	for i := 0; i < incastConns; i++ {
		_, err := verbs.NewQP(nic, qpCfg)
		must(err)
	}
	v["qpipnic.create_qp_ns"] = timeOp(batch, func(n int) {
		for i := 0; i < n; i++ {
			qp, err := verbs.NewQP(nic, qpCfg)
			must(err)
			qp.Close()
		}
	})

	// ---- hostos: 1-byte messages over blocking sockets on the GigE stack.
	sc := core.NewCluster(2, core.NodeConfig{GigE: true})
	var socks [2]*hostos.Socket
	sc.Spawn("accept", func(p *sim.Proc) {
		lst := sc.Nodes[1].Kernel.NewSocket(hostos.TCPSock)
		must(lst.Listen(7000, 1))
		socks[1] = lst.Accept(p)
		socks[1].SetNoDelay(true)
	})
	sc.Spawn("connect", func(p *sim.Proc) {
		socks[0] = sc.Nodes[0].Kernel.NewSocket(hostos.TCPSock)
		socks[0].SetNoDelay(true)
		must(socks[0].Connect(p, sc.Nodes[1].Addr4, 7000))
	})
	sc.Run()
	v["hostos.sock_msg_path_ns"] = timeOp(batch, func(n int) {
		for side := 0; side < 2; side++ {
			sc.Spawn("pingpong", func(p *sim.Proc) {
				s := socks[side]
				for i := 0; i < n; i++ {
					if side == 0 {
						must(s.Send(p, buf.Virtual(1)))
					}
					_, err := s.RecvFull(p, 1)
					must(err)
					if side == 1 {
						must(s.Send(p, buf.Virtual(1)))
					}
				}
			})
		}
		sc.Run()
	}) / 2
	return v
}

// tcpPair builds an established connection pair by exchanging the
// handshake segments directly, the way the firmware drives a TCB. Every
// segment a Conn emits is released by its consumer.
func tcpPair(mode tcp.Mode) (client, server *tcp.Conn) {
	mk := func(lp, rp uint16, iss tcp.Seq) *tcp.Conn {
		c := tcp.NewConn(tcp.Config{
			LocalPort: lp, RemotePort: rp, Mode: mode, MSS: 16384,
			RecvWindow: 1 << 20, MaxRecvWindow: 1 << 20,
			WindowScale: true, Timestamps: true, NoDelay: true, ISS: iss,
		})
		c.ReuseActionBuffers(true)
		return c
	}
	client, server = mk(1000, 2000, 100), mk(2000, 1000, 5000)
	now := int64(1_000_000_000)
	a, err := client.Connect(now)
	must(err)
	syn := a.Segments[0]
	a, err = server.AcceptSYN(syn, now)
	must(err)
	syn.Release()
	synack := a.Segments[0]
	a = client.Input(synack, now)
	synack.Release()
	ack := a.Segments[0]
	server.Input(ack, now)
	ack.Release()
	if client.State() != tcp.Established || server.State() != tcp.Established {
		panic("benchmark: tcp probe handshake failed")
	}
	return client, server
}

// tcpRoundtrip pushes one payload from client to server, consumes it, and
// feeds the acknowledgement back.
func tcpRoundtrip(client, server *tcp.Conn, payload buf.Buf, mode tcp.Mode, now int64) {
	a, err := client.Send(payload, now)
	must(err)
	if len(a.Segments) != 1 {
		panic("benchmark: tcp probe send did not emit one segment")
	}
	seg := a.Segments[0]
	a = server.Input(seg, now)
	seg.Release()
	if len(a.Segments) != 1 || len(a.Delivered) != 1 {
		panic("benchmark: tcp probe input did not deliver and acknowledge")
	}
	ack := a.Segments[0]
	client.Input(ack, now+10_000)
	ack.Release()
	if mode == tcp.Stream {
		for _, s := range server.AppRead(payload.Len(), now+10_000).Segments {
			s.Release()
		}
	}
}

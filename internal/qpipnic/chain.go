package qpipnic

import (
	"repro/internal/buf"
	"repro/internal/fabric"
	"repro/internal/inet"
	"repro/internal/params"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/trace"
	"repro/internal/udp"
	"repro/internal/verbs"
	"repro/internal/wire"
)

// The firmware FSM stages used to be expressed as chains of closures: every
// packet allocated a step slice, one closure per stage, one continuation per
// engine event. This file replaces that with value-typed stage descriptors
// executed by a pooled runner (chainRun) whose one continuation is bound
// at construction — steady-state firmware processing allocates nothing.
// The stage sequence, per-stage costs, event names, and completion order
// are exactly those of the closure chains, so simulated traces are
// unchanged.

// Stage kinds. Most stages charge the firmware CPU a fixed cost; the
// special kinds carry the state that used to live in captured closure
// environments (the packet being built, the record being placed, ...).
const (
	stCPU           uint8 = iota // fixed-cost firmware CPU stage
	stDMA                        // CPU setup then cr.bytes across the PCI bus
	stChecksum                   // firmware checksum loop over cr.bytes (if enabled)
	stMedia                      // Send stage, then inject cr.pkt into the fabric
	stTxWR                       // take one posted send WR and hand to the transport
	stUDPDone                    // complete the UDP send WR
	stComplete                   // one acked-record completion; repeats cr.completions times
	stStash                      // place stashed records into posted receive WRs; repeats
	stStashTally                 // count a remaining backlog after a drain
	stPlaceDone                  // DMA the receive completion token, post it
	stRxDispatch                 // demux a parsed IP packet to TCP/UDP handling
	stRxTCPBody                  // TCB input processing for cr.seg
	stRxUDPBody                  // UDP delivery for cr.pkt
	stUpdateWindow               // re-advertise the receive window
	stEstablished                // notify the host the connection is up
	stReset                      // fail the QP: the peer reset the connection
	stRetryExceeded              // fail the QP: the retry budget is spent
	stPeerClosed                 // the peer closed: flush the QP's receives
)

// stage is one value-typed FSM stage. CPU/DMA/checksum stages resolve their
// occupancy accumulator (ctr) once, at adapter construction, so recording a
// stage does not touch the stage-name map. A runner refers to stages and
// never writes them: the adapter's templates or the shared operand-free
// stages below.
type stage struct {
	kind    uint8
	name    string       // firmware CPU job name (the engine event name)
	dmaName string       // stDMA: bus transfer event name ("<name>.dma")
	ctr     *trace.Stage // occupancy accumulator
	us      float64      // fixed CPU cost in microseconds
}

// The operand-free stages, shared by every adapter.
var (
	stageComplete     = stage{kind: stComplete}
	stageStash        = stage{kind: stStash}
	stageStashTally   = stage{kind: stStashTally}
	stageUpdateWindow = stage{kind: stUpdateWindow}
	stageRxTCPBody    = stage{kind: stRxTCPBody}
	stageRxUDPBody    = stage{kind: stRxUDPBody}

	stageEstablished   = stage{kind: stEstablished}
	stageReset         = stage{kind: stReset}
	stageRetryExceeded = stage{kind: stRetryExceeded}
	stagePeerClosed    = stage{kind: stPeerClosed}
)

// chainRun executes a stage sequence. Per-packet state lives in plain
// fields instead of closure environments, and the runner waits on one
// event at a time, so a single continuation bound at construction serves
// every wait: cont says what it does when the event fires. Runners
// recycle through a per-NIC free list (the engine is single-threaded, so
// no locking).
type chainRun struct {
	n      *NIC
	stages [8]*stage
	done   func()

	// Per-chain operand state (union-style: each chain shape uses a few).
	qs          *qpState
	pkt         *wire.Packet
	ip6         inet.Header6
	epoch       uint32 // sender boot generation (rx chains)
	seg         tcp.Segment
	att         int
	bytes       int
	wrID        uint64
	completions int
	train       int // completions accumulated for one CQ-token writeback
	wr          verbs.RecvWR
	rec         buf.Buf
	raddr       inet.Addr6
	lport       uint16
	rport       uint16
	nStages     uint8 // stages in use
	i           uint8 // the next stage to run
	cont        uint8
	status      verbs.Status
	// at is the completion time of the job the runner waits on, where
	// the emission floor needs it: a queued Send stage or a Get Data
	// burst. -1 while a DMA stage's setup is queued or after the frame
	// left.
	at sim.Time

	// resumeFn is resume, bound once.
	resumeFn func()
}

// Continuations: what a runner does when the event it waits on fires.
const (
	contRun           uint8 = iota // re-enter run
	contDMA                        // after DMA setup CPU: burst payload over the bus
	contMedia                      // after the Send stage: inject the frame
	contComplete                   // after the Update stage: DMA the CQ token
	contCompleteBurst              // after the token lands: post the send completions
	contPlaceBurst                 // after the token lands: post the recv completion
)

func newChainRun(n *NIC) *chainRun {
	cr := &chainRun{n: n}
	cr.resumeFn = cr.resume
	return cr
}

// then arms continuation k and returns the callback to hand the event the
// runner waits on.
//
//qpip:hotpath
func (cr *chainRun) then(k uint8) func() {
	cr.cont = k
	return cr.resumeFn
}

// resume runs the armed continuation.
//
//qpip:hotpath
func (cr *chainRun) resume() {
	n := cr.n
	switch cr.cont {
	case contRun:
		cr.run()
	case contDMA:
		st := cr.stages[cr.i-1]
		cr.at = n.cfg.Bus.BurstAt(cr.bytes, params.LANaiDMABandwidth, st.dmaName, cr.then(contRun))
	case contMedia:
		cr.at = -1
		frame := fabric.NewFrame(n.att, cr.att, cr.pkt.Len()+params.MyrinetHeaderBytes, cr.pkt)
		if n.cfg.PipelinedTX {
			n.fab.Send(frame, nil)
			cr.run()
		} else {
			n.fab.Send(frame, cr.then(contRun))
		}
	case contComplete:
		// One token writeback covers the whole completion train: 32 bytes
		// per CQ entry, a single bus burst.
		n.cfg.Bus.Burst(32*cr.train, "cq.token", cr.then(contCompleteBurst))
	case contCompleteBurst:
		qs := cr.qs
		for ; cr.train > 0; cr.train-- {
			if id, ok := qs.sendIDs.Pop(); ok {
				qs.qp.CompleteSend(id, verbs.StatusSuccess, 0)
			}
		}
		cr.run()
	case contPlaceBurst:
		comp := verbs.Completion{
			WRID:       cr.wr.ID,
			Status:     cr.status,
			ByteLen:    cr.rec.Len(),
			Payload:    cr.rec,
			RemoteAddr: cr.raddr,
			RemotePort: cr.rport,
		}
		if cr.status == verbs.StatusLenError {
			comp.Payload = buf.Empty
			comp.ByteLen = 0
		}
		qs := cr.qs
		qs.qp.CompleteRecv(comp)
		n.updateWindow(qs)
		cr.run()
	}
}

// getChain hands out a runner with done set and all operand state cleared.
//
//qpip:hotpath
func (n *NIC) getChain(done func()) *chainRun {
	cr := pool.Take(&n.chainFree)
	if cr == nil {
		//lint:qpip-allow hotprop pool-miss construction only; runners are recycled through chainFree, so the closures newChainRun binds amortize to zero per packet
		cr = newChainRun(n)
	}
	cr.done = done
	return cr
}

// getTxChain is getChain for the transmit FSM's work item: the runner
// that will reach the item's Send stage, which the emission floor tracks
// until it is freed.
//
//qpip:hotpath
func (n *NIC) getTxChain(done func()) *chainRun {
	n.txRun = n.getChain(done)
	return n.txRun
}

// putChain clears pointer-holding state and returns the runner to the free
// list.
//
//qpip:hotpath
func (n *NIC) putChain(cr *chainRun) {
	if cr == n.txRun {
		n.txRun = nil
	}
	clear(cr.stages[:cr.nStages])
	cr.nStages, cr.i = 0, 0
	cr.done = nil
	cr.qs = nil
	cr.pkt = nil
	cr.seg = tcp.Segment{}
	cr.wr = verbs.RecvWR{}
	cr.rec = buf.Empty
	cr.completions = 0
	cr.train = 0
	n.chainFree = append(n.chainFree, cr)
}

// push appends one stage.
//
//qpip:hotpath
func (cr *chainRun) push(st *stage) {
	cr.stages[cr.nStages] = st
	cr.nStages++
}

// use points the runner at a template stage sequence.
//
//qpip:hotpath
func (cr *chainRun) use(tpl []stage) {
	for j := range tpl {
		cr.stages[j] = &tpl[j]
	}
	cr.nStages = uint8(len(tpl))
}

// run executes stages until one schedules an event (each stage's
// continuation re-enters run), then frees the runner and calls done.
//
//qpip:hotpath
func (cr *chainRun) run() {
	for {
		if cr.i >= cr.nStages {
			n, done := cr.n, cr.done
			n.putChain(cr)
			if done != nil {
				done()
			}
			return
		}
		st := cr.stages[cr.i]
		cr.i++
		switch st.kind {
		case stCPU:
			d := params.US(st.us)
			st.ctr.Observe(d)
			cr.n.cpu.Do(d, st.name, cr.then(contRun))
			return
		case stDMA:
			st.ctr.Observe(params.US(st.us) + lanaiDMA(cr.bytes))
			cr.at = -1
			cr.n.cpu.Do(params.US(st.us), st.name, cr.then(contDMA))
			return
		case stChecksum:
			if cr.n.cfg.Checksum != ChecksumFirmware {
				continue
			}
			d := params.NICCycles(params.FirmwareChecksumCyclesPerByte * float64(cr.bytes))
			st.ctr.Observe(d)
			cr.n.cpu.Do(d, "fw-checksum", cr.then(contRun))
			return
		case stMedia:
			d := params.US(st.us)
			st.ctr.Observe(d)
			cr.at = cr.n.cpu.Do(d, st.name, cr.then(contMedia))
			return
		case stTxWR:
			// Hand off to the per-transport message path; the runner's job
			// ends here, so free it first (done transfers to the callee).
			n, qs, done := cr.n, cr.qs, cr.done
			wr, ok := qs.qp.TakeSendWR()
			if !ok {
				continue
			}
			cr.done = nil
			n.putChain(cr)
			if qs.conn != nil {
				n.sendTCPMessage(qs, wr, done)
			} else {
				n.sendUDPMessage(qs, wr, done)
			}
			return
		case stUDPDone:
			cr.qs.qp.CompleteSend(cr.wrID, verbs.StatusSuccess, cr.bytes)
			continue
		case stComplete:
			// Each acked record pays its Update stage; the CQ-token DMA
			// for the whole train is emitted once, after the last Update
			// (a completion train crosses the bus as one burst).
			cr.completions--
			cr.train++
			d := params.US(params.RxUpdateAckUS)
			cr.n.ctrRxAckUpdate.Observe(d)
			if cr.completions > 0 {
				cr.i-- // stay on this stage for the next completion
				cr.n.cpu.Do(d, "Update", cr.then(contRun))
			} else {
				cr.n.cpu.Do(d, "Update", cr.then(contComplete))
			}
			return
		case stStash:
			qs := cr.qs
			if qs.stash.Len() == 0 {
				continue
			}
			wr, ok := qs.qp.TakeRecvWR()
			if !ok {
				continue
			}
			cr.i-- // stay: drain the next record after this one places
			cr.n.placeRecord(qs, wr, qs.popStash(), qs.remoteAddr, qs.remotePort, cr.then(contRun))
			return
		case stStashTally:
			if cr.qs.stash.Len() > 0 {
				// Receiver not ready: records wait in SRAM until the host
				// posts receive WRs (the QPIP analog of an RNR NAK — the
				// closed TCP window is the backoff). A connection on a
				// shared pool additionally parks on it so the next repost
				// drains it.
				*cr.n.rxRNR++
				cr.qs.rnr++
				cr.n.enqueueSRQWaiter(cr.qs)
			}
			continue
		case stPlaceDone:
			cr.n.cfg.Bus.Burst(32, "cq.token", cr.then(contPlaceBurst))
			return
		case stRxDispatch:
			if cr.rxDispatch() {
				continue
			}
			return
		case stRxTCPBody:
			cr.rxTCPBody()
			continue
		case stRxUDPBody:
			cr.rxUDPBody()
			continue
		case stUpdateWindow:
			cr.n.updateWindow(cr.qs)
			continue
		case stEstablished:
			qs := cr.qs
			//lint:qpip-allow hotprop connection establishment happens once per QP lifetime
			cr.n.notifyHost(func() {
				qs.qp.SetEstablished(qs.localPort, qs.remotePort, qs.remoteAddr)
			})
			continue
		case stReset:
			cr.n.Net.Add("conn.reset", 1)
			cr.n.failQP(cr.qs, verbs.ErrConnRefused, verbs.StatusRemoteError)
			continue
		case stRetryExceeded:
			cr.n.Net.Add("conn.retry-exceeded", 1)
			cr.n.failQP(cr.qs, verbs.ErrRetryExceeded, verbs.StatusRetryExceeded)
			continue
		case stPeerClosed:
			qs := cr.qs
			qs.peerClosed = true
			//lint:qpip-allow hotprop peer close happens once per connection teardown
			cr.n.notifyHost(func() { qs.qp.Flush() })
			continue
		}
	}
}

// rxDispatch demuxes a checksum-verified inbound packet: it extends the
// running chain with the transport parse stage and body. It reports true
// to keep the run loop going (all outcomes continue inline).
func (cr *chainRun) rxDispatch() bool {
	n, pkt := cr.n, cr.pkt
	switch cr.ip6.NextHeader {
	case inet.ProtoTCP:
		seg, _, err := tcp.ParseHeader(pkt.L4Hdr)
		if err != nil {
			*n.rxCorrupt++
			pkt.Release()
			cr.pkt = nil
			return true
		}
		seg.Payload = pkt.Payload
		cr.seg = seg
		parse := &n.tplTCPParseAck
		if pkt.Payload.Len() > 0 {
			parse = &n.tplTCPParseData
		}
		cr.stages[cr.i] = parse
		cr.stages[cr.i+1] = &stageRxTCPBody
		cr.nStages = cr.i + 2
		return true
	case inet.ProtoUDP:
		h, plen, err := udp.Parse(pkt.L4Hdr)
		if err != nil || plen != pkt.Payload.Len() {
			*n.rxCorrupt++
			pkt.Release()
			cr.pkt = nil
			return true
		}
		cr.lport, cr.rport = h.DstPort, h.SrcPort
		cr.stages[cr.i] = &n.tplUDPParse
		cr.stages[cr.i+1] = &stageRxUDPBody
		cr.nStages = cr.i + 2
		return true
	default:
		*n.rxNoPort++
		pkt.Release()
		cr.pkt = nil
		return true
	}
}

// rxTCPBody is the post-parse TCP receive path: verify the end-to-end
// checksum, demux to the TCB (or mate a SYN), and process the input. The
// verification's cost is hardware-assisted or already charged by the
// checksum stage; here only correctness is at stake.
func (cr *chainRun) rxTCPBody() {
	n, pkt := cr.n, cr.pkt
	cr.pkt = nil
	seg := cr.seg
	defer pkt.Release()
	if !inet.TransportValid6(cr.ip6.Src, cr.ip6.Dst, cr.ip6.NextHeader, pkt.L4Hdr, pkt.Payload) {
		*n.rxCorrupt++
		return
	}
	ip6 := cr.ip6
	qs, l, v := n.tcp.Demux(&seg, ip6.Src)
	// Epoch fence (DESIGN §13): the connection is pinned to the sender
	// boot generation it was established under. Older frames are
	// pre-crash stragglers; a newer epoch proves the peer rebooted, so
	// the fenced TCB is dead.
	if v == tcp.Deliver && cr.epoch != 0 {
		if qs.peerEpoch == 0 {
			qs.peerEpoch = cr.epoch
		} else if cr.epoch < qs.peerEpoch {
			n.Net.Add("rx.stale-epoch", 1)
			return
		} else if cr.epoch > qs.peerEpoch {
			n.Net.Add("rx.peer-reboot", 1)
			n.failQP(qs, verbs.ErrPeerRestarted, verbs.StatusRemoteError)
			if !seg.Flags.Has(tcp.SYN) || seg.Flags.Has(tcp.ACK) {
				return
			}
			// The rebooted peer is opening a fresh connection that
			// happens to reuse the old 4-tuple: demux it anew.
			qs, l, v = n.tcp.Demux(&seg, ip6.Src)
		}
	}
	switch v {
	case tcp.Accept:
		// "the client ... initiates a connection to the server that mates
		// the connection to an idle QP in the server application"
		// (paper §3).
		n.acceptSYN(l, &seg, &ip6, cr.epoch)
	case tcp.Refuse:
		// Nothing listens here, or the peer is talking to a connection
		// this adapter no longer knows (we rebooted, or the QP was
		// recycled): refuse so the peer fails fast (ErrConnRefused)
		// instead of burning its retry budget against a silent drop.
		if att, err := n.cfg.Routes.Lookup(ip6.Src); err == nil {
			n.sendBare(tcp.Refusal(&seg), ip6.Src, att)
		}
	case tcp.Deliver:
		acts := qs.conn.Input(&seg, int64(n.eng.Now()))
		n.eng.Rearm(&qs.timer, qs.conn, tcpTimer, qs.timerFn)
		n.handleActions(qs, acts, nil)
	}
}

// rxUDPBody verifies and delivers one datagram into a posted receive WR.
// Datagrams arriving with no posted WR are dropped — UDP QPs are
// unreliable by contract.
func (cr *chainRun) rxUDPBody() {
	n, pkt := cr.n, cr.pkt
	cr.pkt = nil
	defer pkt.Release()
	if udp.Verify6(cr.ip6.Src, cr.ip6.Dst, pkt.L4Hdr, pkt.Payload) != nil {
		*n.rxCorrupt++
		return
	}
	qs, ok := n.udpPorts.Lookup(cr.lport)
	if !ok {
		*n.rxNoPort++
		return
	}
	wr, ok := qs.qp.TakeRecvWR()
	if !ok {
		*n.rxNoWR++
		return
	}
	n.placeRecord(qs, wr, pkt.Payload, cr.ip6.Src, cr.rport, nil)
}

// ---- Stage templates, resolved once per adapter. ----

// chainTemplates holds the constant stage sequences of the four FSM paths.
type chainTemplates struct {
	txWR            [4]stage // Doorbell Process, Schedule, Get WR, take-WR handoff
	txWRBatch       [3]stage // Schedule, Get WR, handoff (vectored-token tail)
	udpSend         [6]stage // Get Data, Build UDP Hdr, Build IP Hdr, Send, Update, complete
	segData         [7]stage // Doorbell Process, Schedule, Get Data, Build TCP Hdr, Build IP Hdr, Send, Update
	segAck          [6]stage // as segData without the payload DMA, on the ack column
	rxData          [4]stage // Media Rcv, IP Parse, checksum, dispatch
	rxAck           [4]stage // same, on the ack column
	place           [4]stage // Get WR, Put Data, Update, completion token
	tplTCPParseData stage
	tplTCPParseAck  stage
	tplUDPParse     stage
	ctrRxAckUpdate  *trace.Stage
}

func cpuSt(set *trace.Stages, name string, us float64) stage {
	return stage{kind: stCPU, name: name, ctr: set.Counter(name), us: us}
}

func dmaSt(set *trace.Stages, name string, us float64) stage {
	return stage{kind: stDMA, name: name, dmaName: name + ".dma", ctr: set.Counter(name), us: us}
}

func (n *NIC) initTemplates() {
	n.txWR = [4]stage{
		cpuSt(n.TxData, "Doorbell Process", params.TxDoorbellProcUS),
		cpuSt(n.TxData, "Schedule", params.TxScheduleUS),
		cpuSt(n.TxData, "Get WR", params.TxGetWRUS),
		{kind: stTxWR},
	}
	// The amortized tail of a vectored doorbell token: Doorbell Process
	// was paid once by the head WR, so the train's remaining WRs start at
	// Schedule.
	n.txWRBatch = [3]stage{
		cpuSt(n.TxData, "Schedule", params.TxScheduleUS),
		cpuSt(n.TxData, "Get WR", params.TxGetWRUS),
		{kind: stTxWR},
	}
	n.udpSend = [6]stage{
		dmaSt(n.TxData, "Get Data", params.TxGetDataUS),
		cpuSt(n.TxData, "Build UDP Hdr", params.TxBuildUDPHdrUS),
		cpuSt(n.TxData, "Build IP Hdr", params.TxBuildIPHdrUS),
		{kind: stMedia, name: "Send", ctr: n.TxData.Counter("Send"), us: params.TxSendUS},
		cpuSt(n.TxData, "Update", params.TxUpdateUS),
		{kind: stUDPDone},
	}
	n.segData = [7]stage{
		cpuSt(n.TxData, "Doorbell Process", params.TxDoorbellProcUS),
		cpuSt(n.TxData, "Schedule", params.TxScheduleUS),
		dmaSt(n.TxData, "Get Data", params.TxGetDataUS),
		cpuSt(n.TxData, "Build TCP Hdr", params.TxBuildTCPHdrUS),
		cpuSt(n.TxData, "Build IP Hdr", params.TxBuildIPHdrUS),
		{kind: stMedia, name: "Send", ctr: n.TxData.Counter("Send"), us: params.TxSendUS},
		cpuSt(n.TxData, "Update", params.TxUpdateUS),
	}
	n.segAck = [6]stage{
		cpuSt(n.TxAck, "Doorbell Process", params.TxDoorbellProcUS),
		cpuSt(n.TxAck, "Schedule", params.TxScheduleUS),
		cpuSt(n.TxAck, "Build TCP Hdr", params.TxBuildTCPHdrUS),
		cpuSt(n.TxAck, "Build IP Hdr", params.TxBuildIPHdrUS),
		{kind: stMedia, name: "Send", ctr: n.TxAck.Counter("Send"), us: params.TxSendUS},
		cpuSt(n.TxAck, "Update", params.TxUpdateUS),
	}
	n.rxData = [4]stage{
		cpuSt(n.RxData, "Media Rcv", params.RxMediaRcvUS),
		cpuSt(n.RxData, "IP Parse", params.RxIPParseUS),
		{kind: stChecksum, ctr: n.RxData.Counter("Checksum (fw)")},
		{kind: stRxDispatch},
	}
	n.rxAck = [4]stage{
		cpuSt(n.RxAck, "Media Rcv", params.RxMediaRcvUS),
		cpuSt(n.RxAck, "IP Parse", params.RxIPParseUS),
		{kind: stChecksum, ctr: n.RxAck.Counter("Checksum (fw)")},
		{kind: stRxDispatch},
	}
	n.place = [4]stage{
		cpuSt(n.RxData, "Get WR", params.RxGetWRUS),
		dmaSt(n.RxData, "Put Data", params.RxPutDataUS),
		cpuSt(n.RxData, "Update", params.RxUpdateDataUS),
		{kind: stPlaceDone},
	}
	n.tplTCPParseData = cpuSt(n.RxData, "TCP Parse", params.RxTCPParseDataUS)
	n.tplTCPParseAck = cpuSt(n.RxAck, "TCP Parse", params.RxTCPParseAckUS)
	n.tplUDPParse = cpuSt(n.RxData, "UDP Parse", params.RxUDPParseUS)
	n.ctrRxAckUpdate = n.RxAck.Counter("Update")

	// The emission floor's minStart. A send starts as a new work item
	// (a segment template, or a WR template and then the datagram tail;
	// a TCP hand-off leads to a later item) or from a collective group
	// joined since the barrier (the join's management stage, then the
	// cheaper of a post and a receive stage queued behind it).
	ack, _ := sendCost(refs(n.segAck[:]), 0)
	data, _ := sendCost(refs(n.segData[:]), 0)
	wr, _ := sendCost(refs(n.txWR[:]), 0)
	batch, _ := sendCost(refs(n.txWRBatch[:]), 0)
	udpTail, _ := sendCost(refs(n.udpSend[:]), 0)
	join := params.US(mgmtUS) + min(params.US(params.CollPostUS), params.US(params.CollStepUS))
	n.minStart = min(ack, data, wr+udpTail, batch+udpTail, join)
}

// lanaiDMA is the time the adapter's DMA engine needs to move bytes
// across the bus, at its own rate; a slower bus only adds to it.
func lanaiDMA(bytes int) sim.Time {
	return sim.Time(float64(bytes) * 1e9 / params.LANaiDMABandwidth)
}

// refs lists pointers to a template's stages, the form a runner holds.
func refs(tpl []stage) []*stage {
	out := make([]*stage, len(tpl))
	for i := range tpl {
		out[i] = &tpl[i]
	}
	return out
}

// sendCost is a lower bound on the firmware time from the start of the
// stage sequence tpl to the completion of its Send stage, with DMA stages
// moving bytes. When tpl has no Send, ok is false and d covers all of tpl.
func sendCost(tpl []*stage, bytes int) (d sim.Time, ok bool) {
	for _, st := range tpl {
		switch st.kind {
		case stCPU:
			d += params.US(st.us)
		case stDMA:
			d += params.US(st.us) + lanaiDMA(bytes)
		case stMedia:
			return d + params.US(st.us), true
		}
	}
	return d, false
}

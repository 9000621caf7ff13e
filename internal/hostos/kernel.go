// Package hostos models the host-based inter-network stack the paper
// compares against (§4.2): a Linux-2.4-class kernel on a 550 MHz
// Pentium-III, with BSD sockets over an in-kernel IPv4 TCP/UDP stack.
// Unlike QPIP — where all protocol processing lives in the adapter — every
// byte here is copied and checksummed by the host CPU and every packet
// pays syscall, protocol, driver, interrupt and softirq costs on the host.
// Those cycles are exactly what Figure 4's CPU-utilization bars and
// Table 1's 29.9 us/16445-cycle overhead measure.
package hostos

import (
	"fmt"

	"repro/internal/buf"
	"repro/internal/hw"
	"repro/internal/inet"
	"repro/internal/params"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/trace"
	"repro/internal/udp"
	"repro/internal/wire"
)

// NetDevice is a network adapter as the kernel sees it: an output queue
// with an MTU. Devices deliver received packets back through
// Kernel.DeliverPacket after their interrupt-side costs.
type NetDevice interface {
	MTU() int
	// Transmit queues one packet for the wire; the driver-side CPU cost
	// has already been charged by the kernel.
	Transmit(pkt *wire.Packet, dstAttachment int)
}

// route maps a destination to a device and fabric attachment.
type route struct {
	dev NetDevice
	att int
}

// Stats is a read-only view of the kernel's Net counters.
type Stats struct {
	SegsOut     uint64 // "tx.segs": TCP segments emitted
	Retransmits uint64 // "tx.retransmit": RTO retransmissions
}

// Kernel is one host's operating system instance.
type Kernel struct {
	eng  *sim.Engine
	name string
	// cpu is the processor the benchmark runs on (CPU 0 of the
	// PowerEdge's four); kernel costs and application compute contend
	// here, which is what makes utilization meaningful.
	cpu *sim.CPU
	bus *hw.PCIBus

	addr   inet.Addr4
	routes map[inet.Addr4]route

	// tcp is the TCP endpoint table (demux, listeners, ports, ISS), shared
	// in kind with the QPIP firmware; a listener is a Socket too.
	tcp      *tcp.Endpoints[inet.Addr4, *Socket, *Socket]
	udpPorts *udp.PortSpace[*Socket]
	ipID     uint16
	lo       loopback

	// Packets waiting out their CPU charges, in charge order: tx across
	// tcp_output/udp_output, softirq across the softirq charge, input
	// across tcp_input/udp_input.
	tx      *sim.Jobs[txOp]
	softirq *sim.Jobs[*wire.Packet]
	input   *sim.Jobs[rxOp]

	// Net counts the kernel's events, one cell per event, under the
	// names the QPIP NIC shares (DESIGN §16.6). The per-packet cells are
	// resolved once.
	Net                         *trace.Counters
	txSegs, rxCorrupt, rxNoPort *uint64
}

// NewKernel builds a host kernel running on cpu. Pass nil to create a
// dedicated 550 MHz processor.
func NewKernel(eng *sim.Engine, name string, addr inet.Addr4, cpu *sim.CPU, bus *hw.PCIBus) *Kernel {
	if cpu == nil {
		cpu = sim.NewCPU(eng, name+".cpu0", params.HostClockHz)
	}
	k := &Kernel{
		eng:      eng,
		name:     name,
		cpu:      cpu,
		bus:      bus,
		addr:     addr,
		routes:   make(map[inet.Addr4]route),
		udpPorts: udp.NewPortSpace[*Socket](),
		Net:      trace.NewCounters(),
	}
	k.tcp = tcp.NewEndpoints[inet.Addr4, *Socket, *Socket](k.Net.Handle)
	k.txSegs = k.Net.Handle("tx.segs")
	k.rxCorrupt = k.Net.Handle("rx.corrupt")
	k.rxNoPort = k.Net.Handle("rx.drop.no-port")
	k.lo = loopback{k: k, deliver: sim.NewJobs(k.DeliverPacket)}
	k.tx = sim.NewJobs(k.transmit)
	k.softirq = sim.NewJobs(k.inputPacket)
	k.input = sim.NewJobs(k.transportInput)
	return k
}

// CPU exposes the host processor (utilization measurements and app work).
func (k *Kernel) CPU() *sim.CPU { return k.cpu }

// Bus exposes the host PCI bus.
func (k *Kernel) Bus() *hw.PCIBus { return k.bus }

// Engine exposes the simulation engine.
func (k *Kernel) Engine() *sim.Engine { return k.eng }

// Stats returns the kernel counters read as a struct.
func (k *Kernel) Stats() Stats {
	return Stats{SegsOut: *k.txSegs, Retransmits: k.Net.Get("tx.retransmit")}
}

// AddRoute binds a destination address to a device and attachment — the
// quiescent-LAN ARP table of the testbed.
func (k *Kernel) AddRoute(dst inet.Addr4, dev NetDevice, attachment int) {
	k.routes[dst] = route{dev: dev, att: attachment}
}

// lookupRoute resolves a destination.
func (k *Kernel) lookupRoute(dst inet.Addr4) (route, bool) {
	if dst == k.addr {
		return route{dev: &k.lo, att: 0}, true
	}
	r, ok := k.routes[dst]
	return r, ok
}

// LiveConns reports the number of TCBs resident in the demux table. The
// kernel reaps eagerly on close/reset/timeout rather than modelling
// TIME_WAIT, so churn benchmarks see steady-state table sizes.
func (k *Kernel) LiveConns() int { return k.tcp.Len() }

// ConnMemBytes estimates committed host kernel memory for the live TCP
// connections: TCB and socket structs plus the per-socket send/receive
// buffer reservations (DESIGN §16). This is the host-stack counterpart
// of the adapter's SRAMFootprint and feeds the connection-density
// benches' per-connection memory axis.
func (k *Kernel) ConnMemBytes() int {
	total := 0
	for _, s := range k.tcp.Conns() {
		total += params.HostTCBBytes + params.HostSockBytes + s.sndBufCap + defaultRcvBuf
	}
	return total
}

// charge runs a kernel cost on the host CPU in event context.
func (k *Kernel) charge(d sim.Time, what string, done func()) {
	k.cpu.Do(d, what, done)
}

// chargeUS is charge in microseconds.
func (k *Kernel) chargeUS(us float64, what string, done func()) {
	k.charge(params.US(us), what, done)
}

// perByte converts a cycles-per-byte cost over n bytes to time.
func perByte(cyclesPerByte float64, n int) sim.Time {
	return params.HostCycles(cyclesPerByte * float64(n))
}

// ---- Transmit path. ----

// txOp is one outgoing segment or datagram waiting out its tcp_output /
// udp_output charge.
type txOp struct {
	r   route
	dst inet.Addr4

	seg *tcp.Segment // TCP; nil for a datagram

	// UDP operands.
	payload          buf.Buf
	srcPort, dstPort uint16
}

// transmit builds the packet once the protocol cost is paid and hands it
// to the device.
//
//qpip:hotpath
func (k *Kernel) transmit(op txOp) {
	pkt := wire.Get()
	pkt.IsV4 = true
	hdr := inet.Header4{TTL: 64, Src: k.addr, Dst: op.dst}
	if seg := op.seg; seg != nil {
		l4 := seg.MarshalHeaderInto(pkt.L4Scratch())
		tcp.SetChecksum(l4, inet.TransportChecksum4(k.addr, op.dst, inet.ProtoTCP, l4, seg.Payload))
		hdr.DontFrag, hdr.Protocol = true, inet.ProtoTCP
		pkt.L4Hdr = l4
		pkt.Payload = seg.Payload
		seg.Release()
	} else {
		pkt.L4Hdr = udp.Marshal4Into(k.addr, op.dst, op.srcPort, op.dstPort, op.payload, pkt.L4Scratch())
		hdr.Protocol = inet.ProtoUDP
		pkt.Payload = op.payload
	}
	k.ipID++
	hdr.ID = k.ipID
	hdr.TotalLen = uint16(inet.IPv4HeaderLen + len(pkt.L4Hdr) + pkt.Payload.Len())
	pkt.IPHdr = inet.Marshal4Into(&hdr, pkt.IPScratch())
	op.r.dev.Transmit(pkt, op.r.att)
}

// emitSegment runs tcp_output for one segment to dst over r: protocol
// cost, software checksum over the payload, driver enqueue, then the
// device.
//
//qpip:hotpath
func (k *Kernel) emitSegment(r route, dst inet.Addr4, seg *tcp.Segment) {
	*k.txSegs++
	cost := params.US(params.HostTCPOutputUS+params.HostSkbUS+params.HostDriverTxUS) +
		perByte(params.HostChecksumCyclesPerByte, seg.Payload.Len())
	k.charge(cost, "tcp_output", k.tx.Add(txOp{r: r, dst: dst, seg: seg}))
}

// emitUDP transmits one datagram.
func (k *Kernel) emitUDP(s *Socket, payload buf.Buf, dst inet.Addr4, dstPort uint16) error {
	r, ok := k.lookupRoute(dst)
	if !ok {
		return fmt.Errorf("hostos: no route to %v", dst)
	}
	if udp.HeaderLen+payload.Len() > r.dev.MTU()-inet.IPv4HeaderLen {
		return fmt.Errorf("hostos: datagram exceeds device MTU %d", r.dev.MTU())
	}
	cost := params.US(params.HostUDPOutputUS+params.HostSkbUS+params.HostDriverTxUS) +
		perByte(params.HostChecksumCyclesPerByte, payload.Len())
	k.charge(cost, "udp_output", k.tx.Add(txOp{r: r, dst: dst, payload: payload, srcPort: s.localPort, dstPort: dstPort}))
	return nil
}

// ---- Receive path. ----

// rxOp is one received packet waiting out its tcp_input / udp_input
// charge, with the headers parsed before the charge.
type rxOp struct {
	pkt *wire.Packet
	ip4 inet.Header4
	seg tcp.Segment // TCP
	udp udp.Header  // UDP
}

// DeliverPacket is the device->kernel handoff: the device has charged its
// interrupt-side costs; the kernel charges softirq protocol processing.
// Whoever ends a packet's processing releases it exactly once (delivered
// data holds its own Buf values; headers and scratch die with it).
//
//qpip:hotpath
func (k *Kernel) DeliverPacket(pkt *wire.Packet) {
	k.chargeUS(params.HostSoftirqPerPktUS, "softirq", k.softirq.Add(pkt))
}

// inputPacket parses and demultiplexes a packet once its softirq charge
// completes.
//
//qpip:hotpath
func (k *Kernel) inputPacket(pkt *wire.Packet) {
	ip4, err := inet.Parse4(pkt.IPHdr)
	if err != nil {
		*k.rxCorrupt++
		pkt.Release()
		return
	}
	switch ip4.Protocol {
	case inet.ProtoTCP:
		k.inputTCP(pkt, ip4)
	case inet.ProtoUDP:
		k.inputUDP(pkt, ip4)
	default:
		*k.rxNoPort++
		pkt.Release()
	}
}

//qpip:hotpath
func (k *Kernel) inputTCP(pkt *wire.Packet, ip4 inet.Header4) {
	seg, _, err := tcp.ParseHeader(pkt.L4Hdr)
	if err != nil {
		*k.rxCorrupt++
		pkt.Release()
		return
	}
	seg.Payload = pkt.Payload
	// Software checksum verification over the segment.
	verify := perByte(params.HostChecksumCyclesPerByte, len(pkt.L4Hdr)+pkt.Payload.Len())
	procCost := params.US(params.HostTCPAckProcUS + params.HostSkbUS)
	if pkt.Payload.Len() > 0 {
		procCost = params.US(params.HostTCPInputUS + params.HostSkbUS)
	}
	k.charge(verify+procCost, "tcp_input", k.input.Add(rxOp{pkt: pkt, ip4: ip4, seg: seg}))
}

func (k *Kernel) inputUDP(pkt *wire.Packet, ip4 inet.Header4) {
	h, plen, err := udp.Parse(pkt.L4Hdr)
	if err != nil || plen != pkt.Payload.Len() {
		*k.rxCorrupt++
		pkt.Release()
		return
	}
	verify := perByte(params.HostChecksumCyclesPerByte, len(pkt.L4Hdr)+pkt.Payload.Len())
	k.charge(verify+params.US(params.HostUDPInputUS+params.HostSkbUS), "udp_input", k.input.Add(rxOp{pkt: pkt, ip4: ip4, udp: h}))
}

// transportInput runs transport input once its charge completes.
//
//qpip:hotpath
func (k *Kernel) transportInput(op rxOp) {
	if op.ip4.Protocol == inet.ProtoTCP {
		k.tcpInput(&op)
	} else {
		k.udpInput(&op)
	}
	op.pkt.Release()
}

func (k *Kernel) tcpInput(op *rxOp) {
	pkt, ip4, seg := op.pkt, &op.ip4, &op.seg
	if !inet.TransportValid4(ip4.Src, ip4.Dst, inet.ProtoTCP, pkt.L4Hdr, pkt.Payload) {
		*k.rxCorrupt++
		return
	}
	s, lst, v := k.tcp.Demux(seg, ip4.Src)
	switch v {
	case tcp.Deliver:
		k.applyActions(s, s.conn.Input(seg, int64(k.eng.Now())))
	case tcp.Accept:
		//lint:qpip-allow hotprop passive open builds a socket and a TCB once per connection, never per segment
		k.acceptSYN(lst, seg, ip4)
	case tcp.Refuse:
		if r, ok := k.lookupRoute(ip4.Src); ok {
			k.emitSegment(r, ip4.Src, tcp.Refusal(seg))
		}
	}
}

func (k *Kernel) udpInput(op *rxOp) {
	pkt, ip4 := op.pkt, &op.ip4
	if udp.Verify4(ip4.Src, ip4.Dst, pkt.L4Hdr, pkt.Payload) != nil {
		*k.rxCorrupt++
		return
	}
	s, ok := k.udpPorts.Lookup(op.udp.DstPort)
	if !ok {
		*k.rxNoPort++
		return
	}
	s.enqueueDatagram(pkt.Payload, ip4.Src, op.udp.SrcPort)
}

// acceptSYN creates a child socket on lst's port.
func (k *Kernel) acceptSYN(lst *Socket, seg *tcp.Segment, ip4 *inet.Header4) {
	r, ok := k.lookupRoute(ip4.Src)
	if !ok {
		k.Net.Add("rx.drop.no-route", 1)
		return
	}
	if lst.acceptQ.Len() >= lst.backlog {
		// Full backlog: drop; the client's SYN retransmit retries.
		k.Net.Add("accept.backlog-full", 1)
		return
	}
	child := newSocket(k, TCPSock)
	child.localPort = seg.DstPort
	child.raddr, child.rport = ip4.Src, seg.SrcPort
	child.route = r
	child.conn = k.tcp.Open(child.key(), child, k.connConfig(r.dev.MTU(), lst.noDelay))
	now := int64(k.eng.Now())
	acts, err := child.conn.AcceptSYN(seg, now)
	if err != nil {
		return
	}
	child.pendingAccept = lst
	k.applyActions(child, acts)
}

// connConfig builds the stream-mode TCB config template (the endpoint
// table fills in ports and ISS).
func (k *Kernel) connConfig(mtu int, noDelay bool) tcp.Config {
	return tcp.Config{
		Mode:          tcp.Stream,
		MSS:           mtu - inet.IPv4HeaderLen - tcp.BaseHeaderLen - tcp.TimestampOptLen,
		RecvWindow:    defaultRcvBuf,
		WindowScale:   true,
		Timestamps:    true,
		DelayedAck:    true,
		NoDelay:       noDelay,
		MaxRetries:    params.TCPMaxRetries,
		SynMaxRetries: params.TCPSynMaxRetries,
	}
}

// applyActions executes TCB outputs in kernel context, then re-arms the
// socket's TCB timer.
func (k *Kernel) applyActions(s *Socket, acts tcp.Actions) {
	for _, seg := range acts.Segments {
		k.emitSegment(s.route, s.raddr, seg)
	}
	for _, d := range acts.Delivered {
		s.enqueueData(d)
	}
	if acts.AckedBytes > 0 {
		s.onAcked()
	}
	if acts.Established {
		s.onEstablished()
	}
	if acts.PeerClosed {
		s.onPeerClosed()
	}
	if acts.Reset {
		s.onReset()
	}
	if acts.RetryExceeded {
		k.Net.Add("conn.retry-exceeded", 1)
		s.onRetryExceeded()
	}
	if acts.Closed { // as do Reset and RetryExceeded
		s.onClosed()
		k.tcp.Reap(s.key(), s)
	}
	k.eng.Rearm(&s.timer, s.conn, "hostos.tcp.timer", s.timerFn)
}

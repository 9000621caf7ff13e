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
	"repro/internal/pool"
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
	Name() string
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

// Stats aggregates kernel-level counters.
type Stats struct {
	SegsOut, SegsIn uint64
	AcksProcessed   uint64
	Syscalls        uint64
	SoftIRQs        uint64
	BytesCopiedIn   uint64
	BytesCopiedOut  uint64
	ChecksumErrors  uint64
	DroppedNoPort   uint64
	Retransmits     uint64
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

	tcpConns map[tcpKey]*Socket
	// tcpPortUse counts live connections per local port so ephemeral
	// allocation is O(1) per probe instead of O(live connections) — at
	// thousands of churning connections the old scan dominated connect().
	tcpPortUse map[uint16]int
	listeners  map[uint16]*Socket
	udpPorts   *udp.PortSpace[*Socket]
	nextPort   uint16
	issCount   uint32
	ipID       uint16
	lo         loopback

	// Recycled per-packet jobs (see txJob, rxJob).
	txFree []*txJob
	rxFree []*rxJob

	// Net counts fault-visible events (rx.corrupt, tx.retransmit,
	// conn.retry-exceeded, ...) with the same names the QPIP NIC uses,
	// so the chaos benches report both stacks uniformly.
	Net   *trace.Counters
	stats Stats
}

type tcpKey struct {
	localPort  uint16
	remoteAddr inet.Addr4
	remotePort uint16
}

// NewKernel builds a host kernel running on cpu. Pass nil to create a
// dedicated 550 MHz processor.
func NewKernel(eng *sim.Engine, name string, addr inet.Addr4, cpu *sim.CPU, bus *hw.PCIBus) *Kernel {
	if cpu == nil {
		cpu = sim.NewCPU(eng, name+".cpu0", params.HostClockHz)
	}
	k := &Kernel{
		eng:        eng,
		name:       name,
		cpu:        cpu,
		bus:        bus,
		addr:       addr,
		routes:     make(map[inet.Addr4]route),
		tcpConns:   make(map[tcpKey]*Socket),
		tcpPortUse: make(map[uint16]int),
		listeners:  make(map[uint16]*Socket),
		udpPorts:   udp.NewPortSpace[*Socket](),
		nextPort:   32768,
		Net:        trace.NewCounters(),
	}
	k.lo = loopback{k: k}
	k.lo.deliverFn = k.lo.deliver
	return k
}

// CPU exposes the host processor (utilization measurements and app work).
func (k *Kernel) CPU() *sim.CPU { return k.cpu }

// Bus exposes the host PCI bus.
func (k *Kernel) Bus() *hw.PCIBus { return k.bus }

// Engine exposes the simulation engine.
func (k *Kernel) Engine() *sim.Engine { return k.eng }

// Addr reports the host's IPv4 address.
func (k *Kernel) Addr() inet.Addr4 { return k.addr }

// Stats returns kernel counters.
func (k *Kernel) Stats() Stats { return k.stats }

// AddRoute binds a destination address to a device and attachment — the
// quiescent-LAN ARP table of the testbed.
func (k *Kernel) AddRoute(dst inet.Addr4, dev NetDevice, attachment int) {
	k.routes[dst] = route{dev: dev, att: attachment}
}

// lookupRoute resolves a destination.
func (k *Kernel) lookupRoute(dst inet.Addr4) (route, error) {
	if dst == k.addr {
		return route{dev: &k.lo, att: 0}, nil
	}
	r, ok := k.routes[dst]
	if !ok {
		return route{}, fmt.Errorf("hostos: no route to %v", dst)
	}
	return r, nil
}

// allocPort grabs an ephemeral TCP port. Each probe is a map lookup, not
// a scan of the connection table, so connection churn at 8k sockets does
// not turn connect() into an O(n) walk.
func (k *Kernel) allocPort() uint16 {
	for {
		p := k.nextPort
		k.nextPort++
		if k.nextPort == 0 {
			k.nextPort = 32768
		}
		if k.listeners[p] == nil && k.tcpPortUse[p] == 0 {
			return p
		}
	}
}

// registerConn installs a TCB in the demux table and reserves its local
// port.
func (k *Kernel) registerConn(key tcpKey, s *Socket) {
	k.tcpConns[key] = s
	k.tcpPortUse[key.localPort]++
}

// reapConn removes a dead connection from the demux table, releasing its
// port reservation. The kernel reaps eagerly on close/reset/timeout
// rather than modelling TIME_WAIT: a late retransmit for a reaped
// connection is dropped (DroppedNoPort) and the peer's own retry budget
// reaps its end, so churn benchmarks see steady-state table sizes.
func (k *Kernel) reapConn(s *Socket) {
	key := tcpKey{s.localPort, s.raddr, s.rport}
	if k.tcpConns[key] != s {
		return // already reaped, or the key was never registered
	}
	delete(k.tcpConns, key)
	if k.tcpPortUse[key.localPort] <= 1 {
		delete(k.tcpPortUse, key.localPort)
	} else {
		k.tcpPortUse[key.localPort]--
	}
}

// LiveConns reports the number of TCBs resident in the demux table.
func (k *Kernel) LiveConns() int { return len(k.tcpConns) }

// ConnMemBytes estimates committed host kernel memory for the live TCP
// connections: TCB and socket structs plus the per-socket send/receive
// buffer reservations (DESIGN §16). This is the host-stack counterpart
// of the adapter's SRAMFootprint and feeds the connection-density
// benches' per-connection memory axis.
func (k *Kernel) ConnMemBytes() int {
	total := 0
	for _, s := range k.tcpConns { //lint:qpip-allow maporder order-independent sum
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

// txJob carries one outgoing segment or datagram across its tcp_output /
// udp_output charge. The continuation is bound once and jobs recycle
// through the kernel's free list, so emitting costs no closure.
type txJob struct {
	k  *Kernel
	s  *Socket
	fn func()

	seg *tcp.Segment // TCP; nil for a datagram

	// UDP operands.
	payload buf.Buf
	dst     inet.Addr4
	dstPort uint16
	r       route
}

func (k *Kernel) getTx(s *Socket) *txJob {
	j := pool.Take(&k.txFree)
	if j == nil {
		j = &txJob{k: k}
		j.fn = j.run
	}
	j.s = s
	return j
}

// run builds the packet once the protocol cost is paid and hands it to
// the device.
//
//qpip:hotpath
func (j *txJob) run() {
	k, s := j.k, j.s
	pkt := wire.Get()
	pkt.IsV4 = true
	r := s.route
	hdr := inet.Header4{TTL: 64, Src: k.addr}
	if seg := j.seg; seg != nil {
		l4 := seg.MarshalHeaderInto(pkt.L4Scratch())
		tcp.SetChecksum(l4, inet.TransportChecksum4(k.addr, s.raddr, inet.ProtoTCP, l4, seg.Payload))
		hdr.DontFrag, hdr.Protocol, hdr.Dst = true, inet.ProtoTCP, s.raddr
		pkt.L4Hdr = l4
		pkt.Payload = seg.Payload
		seg.Release()
	} else {
		r = j.r
		pkt.L4Hdr = udp.Marshal4Into(k.addr, j.dst, s.localPort, j.dstPort, j.payload, pkt.L4Scratch())
		hdr.Protocol, hdr.Dst = inet.ProtoUDP, j.dst
		pkt.Payload = j.payload
	}
	k.ipID++
	hdr.ID = k.ipID
	hdr.TotalLen = uint16(inet.IPv4HeaderLen + len(pkt.L4Hdr) + pkt.Payload.Len())
	pkt.IPHdr = inet.Marshal4Into(&hdr, pkt.IPScratch())
	j.s, j.seg, j.payload, j.r = nil, nil, buf.Empty, route{}
	k.txFree = append(k.txFree, j)
	r.dev.Transmit(pkt, r.att)
}

// emitSegments runs tcp_output for each segment: protocol cost, software
// checksum over the payload, driver enqueue, then the device.
func (k *Kernel) emitSegments(s *Socket, segs []*tcp.Segment) {
	for _, seg := range segs {
		k.emitSegment(s, seg)
	}
}

//qpip:hotpath
func (k *Kernel) emitSegment(s *Socket, seg *tcp.Segment) {
	k.stats.SegsOut++
	cost := params.US(params.HostTCPOutputUS+params.HostSkbUS+params.HostDriverTxUS) +
		perByte(params.HostChecksumCyclesPerByte, seg.Payload.Len())
	j := k.getTx(s)
	j.seg = seg
	k.charge(cost, "tcp_output", j.fn)
}

// emitUDP transmits one datagram.
func (k *Kernel) emitUDP(s *Socket, payload buf.Buf, dst inet.Addr4, dstPort uint16) error {
	r, err := k.lookupRoute(dst)
	if err != nil {
		return err
	}
	if udp.HeaderLen+payload.Len() > r.dev.MTU()-inet.IPv4HeaderLen {
		return fmt.Errorf("hostos: datagram exceeds device MTU %d", r.dev.MTU())
	}
	cost := params.US(params.HostUDPOutputUS+params.HostSkbUS+params.HostDriverTxUS) +
		perByte(params.HostChecksumCyclesPerByte, payload.Len())
	j := k.getTx(s)
	j.payload, j.dst, j.dstPort, j.r = payload, dst, dstPort, r
	k.charge(cost, "udp_output", j.fn)
	return nil
}

// ---- Receive path. ----

// rxJob carries one received packet through softirq and transport input.
// The parsed headers live here rather than in closure environments, both
// continuations are bound once, and jobs recycle through the kernel's free
// list. Whoever ends the packet's processing calls finish exactly once.
type rxJob struct {
	k   *Kernel
	pkt *wire.Packet
	ip4 inet.Header4
	seg tcp.Segment
	udp udp.Header

	softirqFn func() // after the softirq charge: parse and demultiplex
	inputFn   func() // after the tcp_input / udp_input charge
}

// finish releases the packet (delivered data holds its own Buf values;
// headers and scratch die here) and recycles the job.
func (j *rxJob) finish() {
	k := j.k
	j.pkt.Release()
	j.pkt, j.seg = nil, tcp.Segment{}
	k.rxFree = append(k.rxFree, j)
}

// DeliverPacket is the device->kernel handoff: the device has charged its
// interrupt-side costs; the kernel charges softirq protocol processing.
//
//qpip:hotpath
func (k *Kernel) DeliverPacket(pkt *wire.Packet) {
	k.stats.SoftIRQs++
	j := pool.Take(&k.rxFree)
	if j == nil {
		j = &rxJob{k: k}
		j.softirqFn, j.inputFn = j.softirq, j.input
	}
	j.pkt = pkt
	k.chargeUS(params.HostSoftirqPerPktUS, "softirq", j.softirqFn)
}

//qpip:hotpath
func (j *rxJob) softirq() { j.k.inputPacket(j) }

// rxCorrupt counts a packet that failed parsing or verification.
func (k *Kernel) rxCorrupt() {
	k.stats.ChecksumErrors++
	k.Net.Add("rx.corrupt", 1)
}

//qpip:hotpath
func (k *Kernel) inputPacket(j *rxJob) {
	ip4, err := inet.Parse4(j.pkt.IPHdr)
	if err != nil {
		k.rxCorrupt()
		j.finish()
		return
	}
	j.ip4 = ip4
	switch ip4.Protocol {
	case inet.ProtoTCP:
		k.inputTCP(j)
	case inet.ProtoUDP:
		k.inputUDP(j)
	default:
		k.stats.DroppedNoPort++
		j.finish()
	}
}

//qpip:hotpath
func (k *Kernel) inputTCP(j *rxJob) {
	pkt := j.pkt
	seg, _, err := tcp.ParseHeader(pkt.L4Hdr)
	if err != nil {
		k.rxCorrupt()
		j.finish()
		return
	}
	seg.Payload = pkt.Payload
	j.seg = seg
	// Software checksum verification over the segment.
	verify := perByte(params.HostChecksumCyclesPerByte, len(pkt.L4Hdr)+pkt.Payload.Len())
	procCost := params.US(params.HostTCPAckProcUS + params.HostSkbUS)
	if pkt.Payload.Len() > 0 {
		procCost = params.US(params.HostTCPInputUS + params.HostSkbUS)
		k.stats.SegsIn++
	} else {
		k.stats.AcksProcessed++
	}
	k.charge(verify+procCost, "tcp_input", j.inputFn)
}

func (k *Kernel) inputUDP(j *rxJob) {
	pkt := j.pkt
	h, plen, err := udp.Parse(pkt.L4Hdr)
	if err != nil || plen != pkt.Payload.Len() {
		k.rxCorrupt()
		j.finish()
		return
	}
	j.udp = h
	verify := perByte(params.HostChecksumCyclesPerByte, len(pkt.L4Hdr)+pkt.Payload.Len())
	k.charge(verify+params.US(params.HostUDPInputUS+params.HostSkbUS), "udp_input", j.inputFn)
}

// input runs transport input once its charge completes.
//
//qpip:hotpath
func (j *rxJob) input() {
	if j.ip4.Protocol == inet.ProtoTCP {
		j.k.tcpInput(j)
	} else {
		j.k.udpInput(j)
	}
	j.finish()
}

func (k *Kernel) tcpInput(j *rxJob) {
	pkt, ip4, seg := j.pkt, &j.ip4, &j.seg
	if !inet.TransportValid4(ip4.Src, ip4.Dst, inet.ProtoTCP, pkt.L4Hdr, pkt.Payload) {
		k.rxCorrupt()
		return
	}
	s := k.tcpConns[tcpKey{seg.DstPort, ip4.Src, seg.SrcPort}]
	if s == nil {
		if seg.Flags.Has(tcp.SYN) && !seg.Flags.Has(tcp.ACK) {
			//lint:qpip-allow hotprop passive open builds a socket and a TCB once per connection, never per segment
			k.acceptSYN(seg, ip4)
			return
		}
		k.stats.DroppedNoPort++
		return
	}
	k.applyActions(s, s.conn.Input(seg, int64(k.eng.Now())))
}

func (k *Kernel) udpInput(j *rxJob) {
	pkt, ip4 := j.pkt, &j.ip4
	if udp.Verify4(ip4.Src, ip4.Dst, pkt.L4Hdr, pkt.Payload) != nil {
		k.rxCorrupt()
		return
	}
	s, ok := k.udpPorts.Lookup(j.udp.DstPort)
	if !ok {
		k.stats.DroppedNoPort++
		return
	}
	s.enqueueDatagram(pkt.Payload, ip4.Src, j.udp.SrcPort)
}

// acceptSYN creates a child socket on a listening port.
func (k *Kernel) acceptSYN(seg *tcp.Segment, ip4 *inet.Header4) {
	lst := k.listeners[seg.DstPort]
	if lst == nil {
		k.stats.DroppedNoPort++
		return
	}
	r, err := k.lookupRoute(ip4.Src)
	if err != nil {
		k.stats.DroppedNoPort++
		return
	}
	if lst.acceptQ.Len() >= lst.backlog {
		return // full backlog: drop, client retries
	}
	child := newSocket(k, TCPSock)
	child.localPort = seg.DstPort
	child.raddr, child.rport = ip4.Src, seg.SrcPort
	child.route = r
	child.conn = tcp.NewConn(k.connConfig(seg.DstPort, seg.SrcPort, r.dev.MTU(), lst.noDelay))
	// The kernel consumes every Actions before re-entering the TCB, so the
	// action slices can live in per-conn reusable buffers.
	child.conn.ReuseActionBuffers(true)
	k.registerConn(tcpKey{seg.DstPort, ip4.Src, seg.SrcPort}, child)
	now := int64(k.eng.Now())
	acts, err := child.conn.AcceptSYN(seg, now)
	if err != nil {
		return
	}
	child.pendingAccept = lst
	k.applyActions(child, acts)
}

// connConfig builds a stream-mode TCB config.
func (k *Kernel) connConfig(local, remote uint16, mtu int, noDelay bool) tcp.Config {
	k.issCount += 64000
	return tcp.Config{
		LocalPort:     local,
		RemotePort:    remote,
		Mode:          tcp.Stream,
		MSS:           mtu - inet.IPv4HeaderLen - tcp.BaseHeaderLen - tcp.TimestampOptLen,
		RecvWindow:    defaultRcvBuf,
		WindowScale:   true,
		Timestamps:    true,
		DelayedAck:    true,
		NoDelay:       noDelay,
		ISS:           tcp.Seq(k.issCount),
		MaxRetries:    params.TCPMaxRetries,
		SynMaxRetries: params.TCPSynMaxRetries,
	}
}

// applyActions executes TCB outputs in kernel context.
func (k *Kernel) applyActions(s *Socket, acts tcp.Actions) {
	if len(acts.Segments) > 0 {
		k.emitSegments(s, acts.Segments)
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
	if acts.Closed {
		s.onClosed()
	}
	if acts.Closed || acts.Reset || acts.RetryExceeded {
		k.reapConn(s)
	}
	k.syncTimer(s)
}

// syncTimer aligns the socket's kernel timer with the TCB. The timer event
// and its softirq-context body are bound once per socket (newSocket).
//
//qpip:hotpath
func (k *Kernel) syncTimer(s *Socket) {
	if s.timer != nil {
		s.timer.Cancel()
		s.timer = nil
	}
	if s.conn == nil {
		return
	}
	deadline, ok := s.conn.NextTimeout()
	if !ok {
		return
	}
	at := sim.Time(deadline)
	if at < k.eng.Now() {
		at = k.eng.Now()
	}
	s.timer = k.eng.At(at, "hostos.tcp.timer", s.timerFn)
}

// onTimer is the TCB timer body, run in softirq context.
func (k *Kernel) onTimer(s *Socket) {
	acts := s.conn.OnTimer(int64(k.eng.Now()))
	if len(acts.Segments) > 0 {
		k.stats.Retransmits += uint64(len(acts.Segments))
		k.Net.Add("tx.retransmit", uint64(len(acts.Segments)))
	}
	k.applyActions(s, acts)
}

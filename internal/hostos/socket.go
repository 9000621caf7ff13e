package hostos

import (
	"errors"
	"fmt"

	"repro/internal/buf"
	"repro/internal/inet"
	"repro/internal/params"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// Socket buffer defaults (Linux 2.4-era).
const (
	defaultSndBuf = 64 * 1024
	defaultRcvBuf = 64 * 1024
)

// SockProto selects the socket protocol.
type SockProto int

// Socket protocols.
const (
	TCPSock SockProto = iota
	UDPSock
)

// Errors returned by socket operations.
var (
	ErrConnClosed   = errors.New("hostos: connection closed")
	ErrConnReset    = errors.New("hostos: connection reset by peer")
	ErrTimedOut     = errors.New("hostos: connection timed out")
	ErrNotConnected = errors.New("hostos: socket not connected")
	ErrInUse        = errors.New("hostos: address in use")
	ErrConnRefused  = errors.New("hostos: connection refused")
)

// datagram is one queued UDP receive.
type datagram struct {
	payload buf.Buf
	addr    inet.Addr4
	port    uint16
}

// Socket is a BSD-style socket. Blocking calls take the calling process;
// all kernel CPU costs land on the host CPU the process shares.
type Socket struct {
	k     *Kernel
	proto SockProto
	conn  *tcp.Conn
	route route

	localPort uint16
	raddr     inet.Addr4
	rport     uint16

	noDelay   bool
	sndBufCap int

	// Receive side: in-order data the app has not read yet (a short read
	// trims the head entry in place); recvParts is Recv's gather scratch.
	recvQ      pool.Ring[buf.Buf]
	recvQBytes int
	recvParts  []buf.Buf
	dgramQ     pool.Ring[datagram]
	recvWaiter sim.Waiter

	// Send side: writers block when the send buffer fills.
	sndWaiter sim.Waiter

	// Listener state.
	backlog       int
	acceptQ       pool.Ring[*Socket]
	acceptWaiter  sim.Waiter
	pendingAccept *Socket // set on children until established

	estWaiter sim.Waiter
	timer     *sim.Event
	// timerFn fires the TCB timer and charges timerBodyFn, its softirq
	// body; both are bound once so re-arming allocates nothing.
	timerFn, timerBodyFn func()

	established bool
	peerClosed  bool
	reset       bool
	timedOut    bool
	closed      bool
}

// connErr distinguishes a retry-budget timeout (ETIMEDOUT) from a peer
// reset (ECONNRESET) when a dead connection is touched. A reset that
// arrives before the handshake completes is a refusal (ECONNREFUSED).
func (s *Socket) connErr() error {
	switch {
	case s.timedOut:
		return ErrTimedOut
	case !s.established:
		return ErrConnRefused
	}
	return ErrConnReset
}

// key is the socket's connection key in the kernel's endpoint table.
func (s *Socket) key() tcp.Key[inet.Addr4] {
	return tcp.Key[inet.Addr4]{LocalPort: s.localPort, RemoteAddr: s.raddr, RemotePort: s.rport}
}

func newSocket(k *Kernel, proto SockProto) *Socket {
	s := &Socket{k: k, proto: proto, sndBufCap: defaultSndBuf}
	s.timerBodyFn = func() { k.applyActions(s, k.tcp.OnTimer(s.conn, int64(k.eng.Now()))) }
	s.timerFn = func() {
		s.timer = nil
		k.chargeUS(2.0, "tcp_timer", s.timerBodyFn)
	}
	return s
}

// NewSocket creates a socket of the given protocol (the socket(2) call).
func (k *Kernel) NewSocket(proto SockProto) *Socket {
	return newSocket(k, proto)
}

// SetNoDelay sets TCP_NODELAY (must precede Connect/Listen).
func (s *Socket) SetNoDelay(v bool) { s.noDelay = v }

// SetSndBuf adjusts the send buffer bound.
func (s *Socket) SetSndBuf(n int) {
	if n > 0 {
		s.sndBufCap = n
	}
}

// LocalPort reports the bound local port.
func (s *Socket) LocalPort() uint16 { return s.localPort }

// RemoteAddr reports the peer address of a connected socket.
func (s *Socket) RemoteAddr() (inet.Addr4, uint16) { return s.raddr, s.rport }

// syscall charges syscall entry/exit to the calling process.
func (s *Socket) syscall(p *sim.Proc) {
	p.Use(s.k.cpu.Server, params.US(params.HostSyscallUS))
}

// Connect performs an active open and blocks until established.
func (s *Socket) Connect(p *sim.Proc, raddr inet.Addr4, rport uint16) error {
	if s.proto != TCPSock {
		return fmt.Errorf("hostos: Connect on non-TCP socket")
	}
	if s.conn != nil {
		return ErrInUse
	}
	s.syscall(p)
	r, ok := s.k.lookupRoute(raddr)
	if !ok {
		return fmt.Errorf("hostos: no route to %v", raddr)
	}
	conn, port, err := s.k.tcp.Connect(raddr, rport, s, s.k.connConfig(r.dev.MTU(), s.noDelay))
	if err != nil {
		return err
	}
	s.route = r
	s.raddr, s.rport = raddr, rport
	s.localPort, s.conn = port, conn
	now := int64(s.k.eng.Now())
	acts, err := s.conn.Connect(now)
	if err != nil {
		return err
	}
	s.k.applyActions(s, acts)
	for !s.established && !s.reset && !s.timedOut && !s.closed {
		s.estWaiter.Park(p)
		p.Suspend()
	}
	if !s.established {
		return s.connErr()
	}
	return nil
}

// Listen binds a TCP port and starts accepting.
func (s *Socket) Listen(port uint16, backlog int) error {
	if s.proto != TCPSock {
		return fmt.Errorf("hostos: Listen on non-TCP socket")
	}
	if s.k.tcp.Listen(port, s) != nil {
		return ErrInUse
	}
	if backlog <= 0 {
		backlog = 8
	}
	s.localPort = port
	s.backlog = backlog
	return nil
}

// Accept blocks until an established child connection is available.
func (s *Socket) Accept(p *sim.Proc) *Socket {
	s.syscall(p)
	for s.acceptQ.Len() == 0 {
		s.acceptWaiter.Park(p)
		p.Suspend()
	}
	child, _ := s.acceptQ.Pop()
	return child
}

// Send writes b to a connected TCP socket, blocking while the send buffer
// is full. The user->kernel copy is charged per byte (the dominant
// per-byte cost Table 1's framing implies for bulk transfers).
func (s *Socket) Send(p *sim.Proc, b buf.Buf) error {
	if s.conn == nil {
		return ErrNotConnected
	}
	s.syscall(p)
	p.Use(s.k.cpu.Server, params.US(params.HostSockSendUS)+perByte(params.HostCopyCyclesPerByte, b.Len()))
	// Block while the socket buffer (unacked + unsent) is full.
	for s.conn.PendingSend()+s.conn.InFlight()+b.Len() > s.sndBufCap {
		if s.reset || s.timedOut || s.closed {
			return s.connErr()
		}
		s.sndWaiter.Park(p)
		p.Suspend()
	}
	if s.reset || s.timedOut {
		return s.connErr()
	}
	now := int64(s.k.eng.Now())
	acts, err := s.conn.Send(b, now)
	if err != nil {
		return err
	}
	s.k.applyActions(s, acts)
	return nil
}

// Recv reads up to max bytes, blocking until data (or EOF) is available.
// The kernel->user copy is charged per byte.
func (s *Socket) Recv(p *sim.Proc, max int) (buf.Buf, error) {
	if s.conn == nil {
		return buf.Empty, ErrNotConnected
	}
	s.syscall(p)
	for s.recvQBytes == 0 {
		if s.reset || s.timedOut {
			return buf.Empty, s.connErr()
		}
		if s.peerClosed || s.closed {
			return buf.Empty, ErrConnClosed // EOF
		}
		s.recvWaiter.Park(p)
		p.Suspend()
	}
	parts := s.recvParts[:0]
	got := 0
	for got < max && s.recvQ.Len() > 0 {
		head := s.recvQ.Front()
		take := max - got
		if take >= head.Len() {
			parts = append(parts, *head)
			got += head.Len()
			s.recvQ.Pop()
		} else {
			parts = append(parts, head.Slice(0, take))
			*head = head.Slice(take, head.Len())
			got += take
		}
	}
	s.recvQBytes -= got
	p.Use(s.k.cpu.Server, perByte(params.HostCopyCyclesPerByte, got))
	// Reading frees receive buffer: the window may reopen.
	now := int64(s.k.eng.Now())
	acts := s.conn.AppRead(got, now)
	s.k.applyActions(s, acts)
	var out buf.Buf
	if len(parts) == 1 {
		out = parts[0]
	} else {
		out = buf.Concat(parts...)
	}
	clear(parts) // the scratch must not pin delivered payloads
	s.recvParts = parts[:0]
	return out, nil
}

// RecvFull reads exactly n bytes unless the connection ends first.
func (s *Socket) RecvFull(p *sim.Proc, n int) (buf.Buf, error) {
	var parts []buf.Buf
	got := 0
	for got < n {
		b, err := s.Recv(p, n-got)
		if err != nil {
			return buf.Concat(parts...), err
		}
		got += b.Len()
		// A run of virtual buffers is one longer virtual buffer, so a bulk
		// sink reading gigabytes in one call holds one part, not one per
		// Recv.
		if k := len(parts) - 1; k >= 0 && parts[k].IsVirtual() && b.IsVirtual() {
			parts[k] = buf.Virtual(parts[k].Len() + b.Len())
			continue
		}
		parts = append(parts, b)
	}
	return buf.Concat(parts...), nil
}

// Close performs an orderly release.
func (s *Socket) Close(p *sim.Proc) error {
	if s.proto == UDPSock {
		if s.localPort != 0 {
			s.k.udpPorts.Unbind(s.localPort)
		}
		s.closed = true
		return nil
	}
	if s.conn == nil || s.closed {
		s.closed = true
		return nil
	}
	s.syscall(p)
	now := int64(s.k.eng.Now())
	acts, err := s.conn.Close(now)
	if err != nil {
		return nil // already closing
	}
	s.closed = true
	s.k.applyActions(s, acts)
	return nil
}

// ---- UDP. ----

// BindUDP binds the socket to a UDP port (0 = ephemeral).
func (s *Socket) BindUDP(port uint16) (uint16, error) {
	if s.proto != UDPSock {
		return 0, fmt.Errorf("hostos: BindUDP on non-UDP socket")
	}
	got, err := s.k.udpPorts.Bind(port, s)
	if err != nil {
		return 0, err
	}
	s.localPort = got
	return got, nil
}

// SendTo transmits one datagram.
func (s *Socket) SendTo(p *sim.Proc, b buf.Buf, dst inet.Addr4, dstPort uint16) error {
	if s.proto != UDPSock {
		return fmt.Errorf("hostos: SendTo on non-UDP socket")
	}
	if s.localPort == 0 {
		if _, err := s.BindUDP(0); err != nil {
			return err
		}
	}
	s.syscall(p)
	p.Use(s.k.cpu.Server, params.US(params.HostSockSendUS)+perByte(params.HostCopyCyclesPerByte, b.Len()))
	return s.k.emitUDP(s, b, dst, dstPort)
}

// RecvFrom blocks for one datagram.
func (s *Socket) RecvFrom(p *sim.Proc) (buf.Buf, inet.Addr4, uint16, error) {
	if s.proto != UDPSock {
		return buf.Empty, inet.Addr4{}, 0, fmt.Errorf("hostos: RecvFrom on non-UDP socket")
	}
	s.syscall(p)
	for s.dgramQ.Len() == 0 {
		if s.closed {
			return buf.Empty, inet.Addr4{}, 0, ErrConnClosed
		}
		s.recvWaiter.Park(p)
		p.Suspend()
	}
	d, _ := s.dgramQ.Pop()
	p.Use(s.k.cpu.Server, perByte(params.HostCopyCyclesPerByte, d.payload.Len()))
	return d.payload, d.addr, d.port, nil
}

// ---- Kernel-side event hooks. ----

func (s *Socket) enqueueData(b buf.Buf) {
	s.recvQ.Push(b)
	s.recvQBytes += b.Len()
	s.wakeRecv()
}

func (s *Socket) enqueueDatagram(b buf.Buf, addr inet.Addr4, port uint16) {
	s.dgramQ.Push(datagram{payload: b, addr: addr, port: port})
	s.wakeRecv()
}

// wakeRecv wakes a blocked reader, charging the scheduler.
func (s *Socket) wakeRecv() {
	if w := s.recvWaiter.Take(); w != nil {
		s.k.chargeUS(params.HostWakeupUS, "wakeup", w.WakeFn())
	}
}

func (s *Socket) onAcked() {
	if w := s.sndWaiter.Take(); w != nil {
		s.k.chargeUS(params.HostWakeupUS, "wakeup", w.WakeFn())
	}
}

func (s *Socket) onEstablished() {
	s.established = true
	if s.pendingAccept != nil {
		lst := s.pendingAccept
		s.pendingAccept = nil
		lst.acceptQ.Push(s)
		if w := lst.acceptWaiter.Take(); w != nil {
			s.k.chargeUS(params.HostWakeupUS, "wakeup", w.WakeFn())
		}
	}
	s.estWaiter.Wake()
}

func (s *Socket) onPeerClosed() {
	s.peerClosed = true
	s.wakeRecv()
}

func (s *Socket) onReset() {
	s.reset = true
	s.wakeAll()
}

// onRetryExceeded fires when the TCB gave up retransmitting: the peer is
// unreachable, not refusing. Blocked callers fail with ErrTimedOut.
func (s *Socket) onRetryExceeded() {
	s.timedOut = true
	s.wakeAll()
}

func (s *Socket) onClosed() {
	s.wakeAll()
}

func (s *Socket) wakeAll() {
	s.wakeRecv()
	s.onAcked()
	s.estWaiter.Wake()
}

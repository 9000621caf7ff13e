package tcp

import (
	"cmp"
	"errors"
	"slices"
)

// Addr is an address an endpoint table keys on (inet.Addr4, inet.Addr6);
// Compare orders connections for deterministic diagnostics.
type Addr[A any] interface {
	comparable
	Compare(A) int
}

// Key identifies one connection from the local side.
type Key[A any] struct {
	LocalPort  uint16
	RemoteAddr A
	RemotePort uint16
}

// Verdict is Demux's decision for one arriving segment.
type Verdict int

const (
	Deliver Verdict = iota // a TCB owns the segment
	Accept                 // a SYN for a listening port: the host runs the passive open
	Refuse                 // no TCB will take it: answer with Refusal's RST
	Drop                   // an RST with no TCB: answering would start an RST loop
)

// EphemeralMin is the bottom of the ephemeral port range, the IANA dynamic
// range 49152–65535 that udp.PortSpace also uses.
const EphemeralMin = 49152

// Errors returned by Endpoints.
var (
	ErrPortBusy       = errors.New("tcp: port in use")
	ErrPortsExhausted = errors.New("tcp: ephemeral ports exhausted")
)

// Endpoints is the TCP hosting layer of one stack instance, shared by the
// host kernel (hostos, IPv4) and the QPIP adapter firmware (qpipnic,
// IPv6): the 4-tuple demux, listeners, local-port reservations, the ISS
// generator, reaping, RFC 793's answer to a segment no TCB wants, and the
// retransmit count. E is the host's per-connection object (a socket, a
// QP) and L its listener. How segments reach the wire, where data goes,
// who wakes and the Config template stay with the host.
type Endpoints[A Addr[A], E comparable, L any] struct {
	conns     map[Key[A]]E
	listeners map[uint16]L
	// ports counts references per local port: one per TCB, one for a
	// listener, so reaping an accepted child never frees its listener's
	// port.
	ports map[uint16]int32
	next  uint16
	iss   uint32

	// profiles holds the resolved Config of each distinct template Open
	// was given (ports and ISS zeroed); every TCB opened from a template
	// shares its profile instead of carrying a copy.
	profiles map[Config]*Config
	// keys and owners are Conns' buffers, reused from call to call.
	keys   []Key[A]
	owners []E

	retransmits, refused, unknown, dropped *uint64
}

// NewEndpoints returns a table in its power-on state. cell resolves its
// counters by name — a host passes its trace.Counters.Handle so both
// stacks count under one set of names:
//
//   - "tx.retransmit": RTO retransmissions, the data, SYN or FIN segments
//     a retransmission timeout re-sent (not delayed ACKs, window probes or
//     fast retransmits);
//   - "conn.refused": SYNs refused for want of a listener;
//   - "rx.unknown-rst": other segments refused for want of a TCB;
//   - "rx.drop.no-port": RSTs dropped for want of a TCB.
func NewEndpoints[A Addr[A], E comparable, L any](cell func(name string) *uint64) *Endpoints[A, E, L] {
	t := &Endpoints[A, E, L]{retransmits: cell("tx.retransmit"), refused: cell("conn.refused"),
		unknown: cell("rx.unknown-rst"), dropped: cell("rx.drop.no-port"),
		profiles: make(map[Config]*Config)}
	t.Reset()
	return t
}

// Reset restores the power-on state (adapter reboot): no TCBs, listeners
// or reservations, and the port and ISS generators restarted. Counters
// keep counting.
func (t *Endpoints[A, E, L]) Reset() {
	t.conns = make(map[Key[A]]E)
	t.listeners = make(map[uint16]L)
	t.ports = make(map[uint16]int32)
	t.next, t.iss = EphemeralMin, 0
}

// Len reports the number of registered TCBs.
func (t *Endpoints[A, E, L]) Len() int { return len(t.conns) }

// Ports reports the number of reserved local ports.
func (t *Endpoints[A, E, L]) Ports() int { return len(t.ports) }

// Listen binds l to port, refusing a port a listener or any TCB holds.
func (t *Endpoints[A, E, L]) Listen(port uint16, l L) error {
	if t.ports[port] > 0 {
		return ErrPortBusy
	}
	t.listeners[port] = l
	t.ports[port]++
	return nil
}

// Open builds e's TCB from cfg with key's ports and the next ISS, and
// registers it under key, which no TCB may hold: the callers open after a
// Demux found none, or on a free ephemeral port. cfg's own ports and ISS
// are ignored. The TCB reuses its action slices, so the owner must consume
// each Actions before calling into it again.
func (t *Endpoints[A, E, L]) Open(key Key[A], e E, cfg Config) *Conn {
	t.iss += 64000
	c := newConn(t.profile(cfg), key.LocalPort, key.RemotePort, Seq(t.iss))
	t.conns[key] = e
	t.ports[key.LocalPort]++
	return c
}

// profile returns the shared resolved profile of template cfg.
func (t *Endpoints[A, E, L]) profile(cfg Config) *Config {
	cfg.LocalPort, cfg.RemotePort, cfg.ISS = 0, 0, 0
	p, ok := t.profiles[cfg]
	if !ok {
		resolved := cfg.withDefaults()
		p = &resolved
		t.profiles[cfg] = p
	}
	return p
}

// Connect opens e's TCB for an active open to raddr:rport on a free
// ephemeral port, which it returns.
func (t *Endpoints[A, E, L]) Connect(raddr A, rport uint16, e E, cfg Config) (*Conn, uint16, error) {
	for range 1<<16 - EphemeralMin {
		p := t.next
		if t.next++; t.next == 0 {
			t.next = EphemeralMin
		}
		if t.ports[p] == 0 {
			return t.Open(Key[A]{p, raddr, rport}, e, cfg), p, nil
		}
	}
	return nil, 0, ErrPortsExhausted
}

// Reap unregisters e's TCB and releases its port. Every path that ends a
// connection (close, reset, retry exhaustion, host abort) calls it. A key
// not, or no longer, registered to e is left alone, so a late second reap
// cannot unlink a newer connection on the same 4-tuple.
func (t *Endpoints[A, E, L]) Reap(key Key[A], e E) {
	if cur, ok := t.conns[key]; !ok || cur != e {
		return
	}
	delete(t.conns, key)
	if t.ports[key.LocalPort]--; t.ports[key.LocalPort] == 0 {
		delete(t.ports, key.LocalPort)
	}
}

// Demux finds the owner of seg from src. With no TCB it applies RFC 793
// and counts the outcome: a SYN (without ACK) is Accept, returning the
// listener, when a listener holds the port, else Refuse; any other RST is
// Drop; anything else is Refuse.
//
//qpip:hotpath
func (t *Endpoints[A, E, L]) Demux(seg *Segment, src A) (E, L, Verdict) {
	var l L
	e, ok := t.conns[Key[A]{seg.DstPort, src, seg.SrcPort}]
	switch {
	case ok:
		return e, l, Deliver
	case seg.Flags.Has(SYN) && !seg.Flags.Has(ACK):
		if l, ok = t.listeners[seg.DstPort]; ok {
			return e, l, Accept
		}
		*t.refused++
		return e, l, Refuse
	case seg.Flags.Has(RST):
		*t.dropped++
		return e, l, Drop
	}
	*t.unknown++
	return e, l, Refuse
}

// Refusal builds the RST answering a refused seg (RFC 793 "Reset
// Generation"): at the sequence number seg acknowledges, which its
// sender's TCB accepts, or, when seg carries no ACK (a SYN), an RST|ACK
// acknowledging seg.
func Refusal(seg *Segment) *Segment {
	rst := NewSegment()
	rst.SrcPort, rst.DstPort = seg.DstPort, seg.SrcPort
	if seg.Flags.Has(ACK) {
		rst.Flags, rst.Seq = RST, seg.Ack
	} else {
		rst.Flags, rst.Ack = RST|ACK, seg.Seq.Add(seg.SegLen())
	}
	return rst
}

// OnTimer runs c's expired timers and counts the RTO retransmissions they
// made, read from the TCB's own Stats.Retransmits.
//
//qpip:hotpath
func (t *Endpoints[A, E, L]) OnTimer(c *Conn, now int64) Actions {
	before := c.stats.Retransmits
	a := c.OnTimer(now)
	*t.retransmits += c.stats.Retransmits - before
	return a
}

// Conns returns the registered owners in key order, independent of map
// iteration order. The slice is the table's own buffer, reused by the
// next call, so read it before calling again; once the buffers have
// reached the connection count a call allocates nothing.
func (t *Endpoints[A, E, L]) Conns() []E {
	keys, out := t.keys[:0], t.owners[:0]
	if cap(keys) < len(t.conns) {
		keys, out = make([]Key[A], 0, len(t.conns)), make([]E, 0, len(t.conns))
	}
	for k := range t.conns {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b Key[A]) int {
		return cmp.Or(cmp.Compare(a.LocalPort, b.LocalPort), a.RemoteAddr.Compare(b.RemoteAddr),
			cmp.Compare(a.RemotePort, b.RemotePort))
	})
	for _, k := range keys {
		out = append(out, t.conns[k])
	}
	// Owners beyond this call's count would pin reaped connections.
	clear(out[len(out):cap(out)])
	t.keys, t.owners = keys, out
	return out
}

// Package udp implements the User Datagram Protocol header and port
// demultiplexing used by both the QPIP NIC firmware (unreliable QP delivery
// mode, paper §3) and the host-based baseline stack. "The UDP protocol is
// fully functional. Unreliable QP messages are encapsulated directly in UDP
// datagrams" (paper §4.1) — there is no extra framing layer.
package udp

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/buf"
	"repro/internal/inet"
)

// HeaderLen is the fixed UDP header size.
const HeaderLen = 8

// Header is a parsed UDP header.
type Header struct {
	SrcPort, DstPort uint16
	Length           uint16 // header + payload
	Checksum         uint16
}

// Datagram couples a header with its payload.
type Datagram struct {
	Header  Header
	Payload buf.Buf
}

// marshalRawInto serializes the header with the given checksum field into
// b, which must hold at least HeaderLen bytes.
func marshalRawInto(h *Header, ck uint16, b []byte) []byte {
	b = b[:HeaderLen]
	binary.BigEndian.PutUint16(b[0:], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:], h.DstPort)
	binary.BigEndian.PutUint16(b[4:], h.Length)
	binary.BigEndian.PutUint16(b[6:], ck)
	return b
}

// Marshal6 serializes a datagram for IPv6 carriage, computing the mandatory
// transport checksum (RFC 2460 requires UDP checksums under IPv6; a computed
// zero is transmitted as 0xffff).
func Marshal6(src, dst inet.Addr6, srcPort, dstPort uint16, payload buf.Buf) []byte {
	return Marshal6Into(src, dst, srcPort, dstPort, payload, make([]byte, HeaderLen))
}

// Marshal6Into is Marshal6 writing into caller-provided scratch b; the
// header is marshaled once and the checksum patched in place.
func Marshal6Into(src, dst inet.Addr6, srcPort, dstPort uint16, payload buf.Buf, b []byte) []byte {
	h := Header{SrcPort: srcPort, DstPort: dstPort, Length: uint16(HeaderLen + payload.Len())}
	b = marshalRawInto(&h, 0, b)
	ck := inet.TransportChecksum6(src, dst, inet.ProtoUDP, b, payload)
	if ck == 0 {
		ck = 0xffff
	}
	binary.BigEndian.PutUint16(b[6:], ck)
	return b
}

// Marshal4 serializes a datagram for IPv4 carriage.
func Marshal4(src, dst inet.Addr4, srcPort, dstPort uint16, payload buf.Buf) []byte {
	return Marshal4Into(src, dst, srcPort, dstPort, payload, make([]byte, HeaderLen))
}

// Marshal4Into is Marshal4 writing into caller-provided scratch b.
func Marshal4Into(src, dst inet.Addr4, srcPort, dstPort uint16, payload buf.Buf, b []byte) []byte {
	h := Header{SrcPort: srcPort, DstPort: dstPort, Length: uint16(HeaderLen + payload.Len())}
	b = marshalRawInto(&h, 0, b)
	ck := inet.TransportChecksum4(src, dst, inet.ProtoUDP, b, payload)
	if ck == 0 {
		ck = 0xffff
	}
	binary.BigEndian.PutUint16(b[6:], ck)
	return b
}

// Parse errors.
var (
	ErrTruncated   = errors.New("udp: truncated datagram")
	ErrBadLength   = errors.New("udp: bad length field")
	ErrBadChecksum = errors.New("udp: bad checksum")
)

// Parse decodes a UDP header from b and returns it along with the number of
// payload bytes the length field claims. Checksum verification is separate
// (Verify6/Verify4) because offloaded NICs may verify in hardware.
func Parse(b []byte) (Header, int, error) {
	var h Header
	if len(b) < HeaderLen {
		return h, 0, ErrTruncated
	}
	h.SrcPort = binary.BigEndian.Uint16(b[0:])
	h.DstPort = binary.BigEndian.Uint16(b[2:])
	h.Length = binary.BigEndian.Uint16(b[4:])
	h.Checksum = binary.BigEndian.Uint16(b[6:])
	if int(h.Length) < HeaderLen {
		return h, 0, ErrBadLength
	}
	return h, int(h.Length) - HeaderLen, nil
}

// Verify6 checks the transport checksum of a datagram received over IPv6.
func Verify6(src, dst inet.Addr6, hdr []byte, payload buf.Buf) error {
	if !inet.TransportValid6(src, dst, inet.ProtoUDP, hdr, payload) {
		return ErrBadChecksum
	}
	return nil
}

// Verify4 checks the transport checksum of a datagram received over IPv4.
// An all-zero checksum field means "not computed" under IPv4 and passes.
func Verify4(src, dst inet.Addr4, hdr []byte, payload buf.Buf) error {
	if len(hdr) < HeaderLen {
		return ErrTruncated
	}
	if binary.BigEndian.Uint16(hdr[6:]) == 0 {
		return nil
	}
	if !inet.TransportValid4(src, dst, inet.ProtoUDP, hdr, payload) {
		return ErrBadChecksum
	}
	return nil
}

// PortSpace allocates and demultiplexes UDP ports for one stack instance.
// The value type E is whatever endpoint object the owner demuxes to (a QP
// in the NIC firmware, a socket in the host stack).
type PortSpace[E any] struct {
	bound     map[uint16]E
	ephemeral uint16
}

// NewPortSpace returns an empty port space. Ephemeral allocation starts at
// 49152, the IANA dynamic range.
func NewPortSpace[E any]() *PortSpace[E] {
	return &PortSpace[E]{bound: make(map[uint16]E), ephemeral: 49152}
}

// Bind claims a specific port. Port 0 requests an ephemeral port. The bound
// port is returned.
func (p *PortSpace[E]) Bind(port uint16, ep E) (uint16, error) {
	if port == 0 {
		for i := 0; i < 1<<16; i++ {
			cand := p.ephemeral
			p.ephemeral++
			if p.ephemeral == 0 {
				p.ephemeral = 49152
			}
			if _, taken := p.bound[cand]; !taken && cand != 0 {
				port = cand
				break
			}
		}
		if port == 0 {
			return 0, errors.New("udp: ephemeral ports exhausted")
		}
	} else if _, taken := p.bound[port]; taken {
		return 0, fmt.Errorf("udp: port %d in use", port)
	}
	p.bound[port] = ep
	return port, nil
}

// Lookup demultiplexes a destination port to its endpoint.
func (p *PortSpace[E]) Lookup(port uint16) (E, bool) {
	ep, ok := p.bound[port]
	return ep, ok
}

// Unbind releases a port.
func (p *PortSpace[E]) Unbind(port uint16) { delete(p.bound, port) }

// Reset releases every binding and restarts ephemeral allocation from the
// power-on value (adapter crash/reboot).
func (p *PortSpace[E]) Reset() {
	p.bound = make(map[uint16]E)
	p.ephemeral = 49152
}

// Len reports the number of bound ports.
func (p *PortSpace[E]) Len() int { return len(p.bound) }

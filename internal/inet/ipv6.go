package inet

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/buf"
)

// IPv6HeaderLen is the fixed IPv6 header size. The QPIP prototype does not
// use extension headers (paper §4.1).
const IPv6HeaderLen = 40

// DefaultHopLimit matches the common default of the FreeBSD 4.x stack the
// prototype's IPv6 layer was derived from.
const DefaultHopLimit = 64

// Header6 is a parsed IPv6 fixed header.
type Header6 struct {
	TrafficClass  byte
	FlowLabel     uint32 // 20 bits
	PayloadLength uint16
	NextHeader    byte
	HopLimit      byte
	Src, Dst      Addr6
}

// Marshal6 serializes h into a fresh 40-byte slice.
func Marshal6(h *Header6) []byte {
	return Marshal6Into(h, make([]byte, IPv6HeaderLen))
}

// Marshal6Into serializes h into b, which must hold at least IPv6HeaderLen
// bytes, and returns the header slice of b. Hot paths pass per-packet
// scratch space to avoid the allocation in Marshal6.
func Marshal6Into(h *Header6, b []byte) []byte {
	b = b[:IPv6HeaderLen]
	b[0] = 6<<4 | h.TrafficClass>>4
	b[1] = h.TrafficClass<<4 | byte(h.FlowLabel>>16&0x0f)
	b[2] = byte(h.FlowLabel >> 8)
	b[3] = byte(h.FlowLabel)
	binary.BigEndian.PutUint16(b[4:], h.PayloadLength)
	b[6] = h.NextHeader
	b[7] = h.HopLimit
	copy(b[8:24], h.Src[:])
	copy(b[24:40], h.Dst[:])
	return b
}

// Errors from header parsing.
var (
	ErrTruncated  = errors.New("inet: truncated header")
	ErrBadVersion = errors.New("inet: bad IP version")
)

// Parse6 decodes an IPv6 fixed header from b.
func Parse6(b []byte) (Header6, error) {
	var h Header6
	if len(b) < IPv6HeaderLen {
		return h, fmt.Errorf("%w: ipv6 header needs %d bytes, have %d", ErrTruncated, IPv6HeaderLen, len(b))
	}
	if b[0]>>4 != 6 {
		return h, fmt.Errorf("%w: got %d, want 6", ErrBadVersion, b[0]>>4)
	}
	h.TrafficClass = b[0]<<4 | b[1]>>4
	h.FlowLabel = uint32(b[1]&0x0f)<<16 | uint32(b[2])<<8 | uint32(b[3])
	h.PayloadLength = binary.BigEndian.Uint16(b[4:])
	h.NextHeader = b[6]
	h.HopLimit = b[7]
	copy(h.Src[:], b[8:24])
	copy(h.Dst[:], b[24:40])
	return h, nil
}

// PseudoSum6 computes the partial checksum of the IPv6 pseudo-header
// (RFC 2460 §8.1) for an upper-layer packet of the given length and
// protocol.
func PseudoSum6(src, dst Addr6, proto byte, upperLen int) uint32 {
	var sum uint32
	sum = Sum(sum, src[:])
	sum = Sum(sum, dst[:])
	var tail [8]byte
	binary.BigEndian.PutUint32(tail[0:], uint32(upperLen))
	tail[7] = proto
	return Sum(sum, tail[:])
}

// TransportChecksum6 computes the transport checksum field value for an
// upper-layer header+payload under IPv6, where hdr carries the transport
// header bytes with its checksum field zeroed and payload may be virtual.
func TransportChecksum6(src, dst Addr6, proto byte, hdr []byte, payload buf.Buf) uint16 {
	return Finish(transportSum6(src, dst, proto, hdr, payload))
}

// TransportValid6 is the verifying twin of TransportChecksum6: it reports
// whether a received upper-layer header+payload, hdr carrying its checksum
// field as received, sums with the IPv6 pseudo-header to all ones.
func TransportValid6(src, dst Addr6, proto byte, hdr []byte, payload buf.Buf) bool {
	return Fold(transportSum6(src, dst, proto, hdr, payload)) == 0xffff
}

func transportSum6(src, dst Addr6, proto byte, hdr []byte, payload buf.Buf) uint32 {
	sum := PseudoSum6(src, dst, proto, len(hdr)+payload.Len())
	return SumBuf(Sum(sum, hdr), payload)
}

package inet

import (
	"encoding/binary"
	"errors"

	"repro/internal/buf"
)

// IPv4HeaderLen is the header size without options; the host-based baseline
// stack (Linux IPv4, paper §4.2) never emits IP options.
const IPv4HeaderLen = 20

// Header4 is a parsed IPv4 header (options unsupported).
type Header4 struct {
	TOS        byte
	TotalLen   uint16
	ID         uint16
	DontFrag   bool
	MoreFrags  bool
	FragOffset uint16 // in 8-byte units
	TTL        byte
	Protocol   byte
	Src, Dst   Addr4
}

// Marshal4 serializes h into a fresh 20-byte slice with a correct header
// checksum.
func Marshal4(h *Header4) []byte {
	return Marshal4Into(h, make([]byte, IPv4HeaderLen))
}

// Marshal4Into serializes h into b, which must hold at least IPv4HeaderLen
// bytes, and returns the header slice of b. Hot paths pass per-packet
// scratch space to avoid the allocation in Marshal4.
func Marshal4Into(h *Header4, b []byte) []byte {
	b = b[:IPv4HeaderLen]
	b[0] = 4<<4 | IPv4HeaderLen/4
	b[1] = h.TOS
	binary.BigEndian.PutUint16(b[2:], h.TotalLen)
	binary.BigEndian.PutUint16(b[4:], h.ID)
	frag := h.FragOffset & 0x1fff
	if h.DontFrag {
		frag |= 0x4000
	}
	if h.MoreFrags {
		frag |= 0x2000
	}
	binary.BigEndian.PutUint16(b[6:], frag)
	b[8] = h.TTL
	b[9] = h.Protocol
	b[10], b[11] = 0, 0 // checksum field must be zero while summing
	copy(b[12:16], h.Src[:])
	copy(b[16:20], h.Dst[:])
	binary.BigEndian.PutUint16(b[10:], Checksum(b))
	return b
}

// ErrBadChecksum reports a header or transport checksum failure.
var ErrBadChecksum = errors.New("inet: bad checksum")

// ErrOptions reports an IPv4 header carrying options, which no stack here
// emits or accepts.
var ErrOptions = errors.New("inet: ipv4 options unsupported")

// Parse4 decodes and validates an IPv4 header from b. It sits on the host
// stack's per-packet path, so failures are the fixed sentinels, not
// formatted per packet.
func Parse4(b []byte) (Header4, error) {
	var h Header4
	if len(b) < IPv4HeaderLen {
		return h, ErrTruncated
	}
	if b[0]>>4 != 4 {
		return h, ErrBadVersion
	}
	if int(b[0]&0x0f)*4 != IPv4HeaderLen {
		return h, ErrOptions
	}
	if !Valid(b[:IPv4HeaderLen]) {
		return h, ErrBadChecksum
	}
	h.TOS = b[1]
	h.TotalLen = binary.BigEndian.Uint16(b[2:])
	h.ID = binary.BigEndian.Uint16(b[4:])
	frag := binary.BigEndian.Uint16(b[6:])
	h.DontFrag = frag&0x4000 != 0
	h.MoreFrags = frag&0x2000 != 0
	h.FragOffset = frag & 0x1fff
	h.TTL = b[8]
	h.Protocol = b[9]
	copy(h.Src[:], b[12:16])
	copy(h.Dst[:], b[16:20])
	return h, nil
}

// PseudoSum4 computes the partial checksum of the IPv4 pseudo-header for an
// upper-layer packet of the given length and protocol.
func PseudoSum4(src, dst Addr4, proto byte, upperLen int) uint32 {
	var sum uint32
	sum = Sum(sum, src[:])
	sum = Sum(sum, dst[:])
	var tail [4]byte
	tail[1] = proto
	binary.BigEndian.PutUint16(tail[2:], uint16(upperLen))
	return Sum(sum, tail[:])
}

// TransportChecksum4 computes the transport checksum field value for an
// upper-layer header+payload under IPv4.
func TransportChecksum4(src, dst Addr4, proto byte, hdr []byte, payload buf.Buf) uint16 {
	return Finish(transportSum4(src, dst, proto, hdr, payload))
}

// TransportValid4 is the verifying twin of TransportChecksum4: it reports
// whether a received upper-layer header+payload, hdr carrying its checksum
// field as received, sums with the IPv4 pseudo-header to all ones.
func TransportValid4(src, dst Addr4, proto byte, hdr []byte, payload buf.Buf) bool {
	return Fold(transportSum4(src, dst, proto, hdr, payload)) == 0xffff
}

func transportSum4(src, dst Addr4, proto byte, hdr []byte, payload buf.Buf) uint32 {
	sum := PseudoSum4(src, dst, proto, len(hdr)+payload.Len())
	return SumBuf(Sum(sum, hdr), payload)
}

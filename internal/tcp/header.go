package tcp

import (
	"encoding/binary"
	"errors"

	"repro/internal/buf"
)

// Flags is the TCP control-flag set.
type Flags uint8

// TCP control flags (RFC 793 header bit order).
const (
	FIN Flags = 1 << iota
	SYN
	RST
	PSH
	ACK
	URG
)

// Has reports whether all flags in f are set.
func (f Flags) Has(q Flags) bool { return f&q == q }

func (f Flags) String() string {
	names := []struct {
		f Flags
		n string
	}{{SYN, "SYN"}, {ACK, "ACK"}, {FIN, "FIN"}, {RST, "RST"}, {PSH, "PSH"}, {URG, "URG"}}
	out := ""
	for _, e := range names {
		if f.Has(e.f) {
			if out != "" {
				out += "|"
			}
			out += e.n
		}
	}
	if out == "" {
		return "none"
	}
	return out
}

// BaseHeaderLen is the option-free TCP header size.
const BaseHeaderLen = 20

// TimestampOptLen is the on-wire size of the RFC 1323 timestamp option
// including its two leading NOPs, the layout every stack of the era used.
const TimestampOptLen = 12

// Segment is one TCP segment: header fields, parsed options, and payload.
// In QPIP record mode, one segment carries exactly one QP message.
type Segment struct {
	SrcPort, DstPort uint16
	Seq, Ack         Seq
	Flags            Flags
	Wnd              uint16 // raw (unscaled) window field

	// Options. MSS and WScale are only valid on SYN segments.
	MSS      uint16 // 0 = absent
	WScale   int8   // -1 = absent
	HasTS    bool
	TSVal    uint32
	TSEcr    uint32
	SACKPerm bool

	// pooled marks segments drawn from NewSegment's sync.Pool; Release
	// recycles only those, so literal and ParseHeader segments need no care.
	// It sits beside SACKPerm so a Segment fits in 64 bytes.
	pooled bool

	Payload buf.Buf
}

// SegLen reports the sequence space the segment occupies (payload plus SYN
// and FIN, which each consume one sequence number).
func (s *Segment) SegLen() int {
	n := s.Payload.Len()
	if s.Flags.Has(SYN) {
		n++
	}
	if s.Flags.Has(FIN) {
		n++
	}
	return n
}

// HeaderLen reports the marshaled header size including options, always a
// multiple of 4.
func (s *Segment) HeaderLen() int {
	n := BaseHeaderLen
	if s.MSS != 0 {
		n += 4
	}
	if s.WScale >= 0 {
		n += 4 // kind 3 len 3 + NOP
	}
	if s.HasTS {
		n += TimestampOptLen
	}
	if s.SACKPerm {
		n += 4 // NOP NOP kind 4 len 2
	}
	return n
}

// MarshalHeader serializes the TCP header with its checksum field zeroed;
// the owning stack computes and patches the transport checksum because
// checksum placement (hardware, firmware, host) is a measured variable in
// the paper.
func (s *Segment) MarshalHeader() []byte {
	return s.MarshalHeaderInto(make([]byte, s.HeaderLen()))
}

// MarshalHeaderInto is MarshalHeader writing into caller-provided scratch b,
// which must hold at least HeaderLen bytes (44 covers every option set).
func (s *Segment) MarshalHeaderInto(b []byte) []byte {
	hlen := s.HeaderLen()
	b = b[:hlen]
	binary.BigEndian.PutUint16(b[0:], s.SrcPort)
	binary.BigEndian.PutUint16(b[2:], s.DstPort)
	binary.BigEndian.PutUint32(b[4:], uint32(s.Seq))
	binary.BigEndian.PutUint32(b[8:], uint32(s.Ack))
	b[12] = byte(hlen/4) << 4
	b[13] = byte(s.Flags)
	binary.BigEndian.PutUint16(b[14:], s.Wnd)
	// b[16:18] checksum zero; b[18:20] urgent pointer zero (urgent data
	// unsupported, paper §4.1). Explicit because b may be reused scratch.
	b[16], b[17], b[18], b[19] = 0, 0, 0, 0
	o := BaseHeaderLen
	if s.MSS != 0 {
		b[o], b[o+1] = 2, 4
		binary.BigEndian.PutUint16(b[o+2:], s.MSS)
		o += 4
	}
	if s.WScale >= 0 {
		b[o], b[o+1], b[o+2], b[o+3] = 3, 3, byte(s.WScale), 1 // opt + NOP pad
		o += 4
	}
	if s.SACKPerm {
		b[o], b[o+1], b[o+2], b[o+3] = 1, 1, 4, 2
		o += 4
	}
	if s.HasTS {
		b[o], b[o+1], b[o+2], b[o+3] = 1, 1, 8, 10
		binary.BigEndian.PutUint32(b[o+4:], s.TSVal)
		binary.BigEndian.PutUint32(b[o+8:], s.TSEcr)
		o += TimestampOptLen
	}
	_ = o
	return b
}

// SetChecksum patches a computed transport checksum into a marshaled header.
func SetChecksum(hdr []byte, ck uint16) { binary.BigEndian.PutUint16(hdr[16:], ck) }

// GetChecksum reads the checksum field of a marshaled header.
func GetChecksum(hdr []byte) uint16 { return binary.BigEndian.Uint16(hdr[16:]) }

// Parse errors. These are fixed sentinels rather than detail-bearing
// fmt.Errorf wraps: ParseHeader runs per received segment on the host
// receive path, and even its failure arms must not allocate (a corrupted
// burst would otherwise turn into GC pressure).
var (
	ErrTruncated = errors.New("tcp: truncated segment")
	ErrBadOffset = errors.New("tcp: bad data offset")
	ErrBadOption = errors.New("tcp: malformed option")
)

// ParseHeader decodes a TCP header (with options) from b and returns the
// segment (Payload unset) and the header length consumed.
func ParseHeader(b []byte) (Segment, int, error) {
	var s Segment
	s.WScale = -1
	if len(b) < BaseHeaderLen {
		return s, 0, ErrTruncated
	}
	s.SrcPort = binary.BigEndian.Uint16(b[0:])
	s.DstPort = binary.BigEndian.Uint16(b[2:])
	s.Seq = Seq(binary.BigEndian.Uint32(b[4:]))
	s.Ack = Seq(binary.BigEndian.Uint32(b[8:]))
	hlen := int(b[12]>>4) * 4
	if hlen < BaseHeaderLen || hlen > len(b) {
		return s, 0, ErrBadOffset
	}
	s.Flags = Flags(b[13] & 0x3f)
	s.Wnd = binary.BigEndian.Uint16(b[14:])
	opts := b[BaseHeaderLen:hlen]
	for len(opts) > 0 {
		switch kind := opts[0]; kind {
		case 0: // EOL
			opts = nil
		case 1: // NOP
			opts = opts[1:]
		default:
			if len(opts) < 2 || int(opts[1]) < 2 || int(opts[1]) > len(opts) {
				return s, 0, ErrBadOption
			}
			olen := int(opts[1])
			body := opts[2:olen]
			switch kind {
			case 2:
				if len(body) != 2 {
					return s, 0, ErrBadOption
				}
				s.MSS = binary.BigEndian.Uint16(body)
			case 3:
				if len(body) != 1 {
					return s, 0, ErrBadOption
				}
				s.WScale = int8(body[0])
			case 4:
				if len(body) != 0 {
					return s, 0, ErrBadOption
				}
				s.SACKPerm = true
			case 8:
				if len(body) != 8 {
					return s, 0, ErrBadOption
				}
				s.HasTS = true
				s.TSVal = binary.BigEndian.Uint32(body[0:])
				s.TSEcr = binary.BigEndian.Uint32(body[4:])
			}
			opts = opts[olen:]
		}
	}
	return s, hlen, nil
}

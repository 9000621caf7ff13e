package inet

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"repro/internal/buf"
)

func TestChecksumRFC1071Example(t *testing.T) {
	// Worked example from RFC 1071 §3: bytes 00 01 f2 03 f4 f5 f6 f7.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Fold(Sum(0, data)); got != 0xddf2 {
		t.Errorf("Fold(Sum) = %#x, want 0xddf2", got)
	}
	if got := Checksum(data); got != ^uint16(0xddf2) {
		t.Errorf("Checksum = %#x, want %#x", got, ^uint16(0xddf2))
	}
}

func TestChecksumOddLength(t *testing.T) {
	// Odd trailing byte is padded with zero.
	if got := Checksum([]byte{0xab}); got != ^uint16(0xab00) {
		t.Errorf("Checksum odd = %#x, want %#x", got, ^uint16(0xab00))
	}
}

func TestChecksumValidRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		// Append the computed checksum; the whole must validate.
		c := Checksum(data)
		if len(data)%2 == 1 {
			data = append(data, 0) // checksum assumes even alignment of its own field
		}
		full := append(append([]byte{}, data...), byte(c>>8), byte(c))
		return Valid(full)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSumBufVirtualIsZeroContribution(t *testing.T) {
	hdr := []byte{0x12, 0x34, 0x56, 0x78}
	real := Sum(Sum(0, hdr), make([]byte, 100))
	virt := SumBuf(Sum(0, hdr), buf.Virtual(100))
	if Fold(real) != Fold(virt) {
		t.Errorf("virtual payload checksum %#x != real zero payload %#x", Fold(virt), Fold(real))
	}
}

func TestSumIncrementalEqualsWhole(t *testing.T) {
	f := func(a, b []byte) bool {
		if len(a)%2 == 1 {
			a = append(a, 0)
		}
		whole := Fold(Sum(Sum(0, a), b))
		joined := Fold(Sum(0, append(append([]byte{}, a...), b...)))
		return whole == joined
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddr4String(t *testing.T) {
	if got := V4(10, 0, 0, 1).String(); got != "10.0.0.1" {
		t.Errorf("String = %q", got)
	}
	if got := V4(10, 0, 0, 1).Uint32(); got != 0x0a000001 {
		t.Errorf("Uint32 = %#x", got)
	}
}

func TestAddr6Construction(t *testing.T) {
	a := V6(0xfec0, 0, 0, 0, 0, 0, 0, 1)
	if a[0] != 0xfe || a[1] != 0xc0 || a[15] != 1 {
		t.Errorf("V6 bytes = %v", a)
	}
	if got := a.String(); got != "fec0:0:0:0:0:0:0:1" {
		t.Errorf("String = %q", got)
	}
	if a.IsZero() {
		t.Error("IsZero on non-zero address")
	}
	if !(Addr6{}).IsZero() {
		t.Error("zero Addr6 not IsZero")
	}
	// Compare orders bytewise: the last group decides here.
	b := V6(0xfec0, 0, 0, 0, 0, 0, 0, 2)
	if a.Compare(b) != -1 || b.Compare(a) != 1 || a.Compare(a) != 0 {
		t.Errorf("Compare(%v, %v) does not order bytewise", a, b)
	}
}

func TestV6WrongGroupCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("V6 with 3 groups did not panic")
		}
	}()
	V6(1, 2, 3)
}

func TestNodeAddrsDistinct(t *testing.T) {
	seen6 := map[Addr6]bool{}
	seen4 := map[Addr4]bool{}
	for i := 0; i < 300; i++ {
		a6, a4 := NodeAddr6(i), NodeAddr4(i)
		if seen6[a6] || seen4[a4] {
			t.Fatalf("duplicate node address at %d", i)
		}
		seen6[a6], seen4[a4] = true, true
	}
}

func TestIPv6MarshalParseRoundTrip(t *testing.T) {
	h := Header6{
		TrafficClass:  0xa5,
		FlowLabel:     0xbeef,
		PayloadLength: 1234,
		NextHeader:    ProtoTCP,
		HopLimit:      64,
		Src:           NodeAddr6(0),
		Dst:           NodeAddr6(1),
	}
	b := Marshal6(&h)
	if len(b) != IPv6HeaderLen {
		t.Fatalf("marshal length = %d", len(b))
	}
	got, err := Parse6(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, h)
	}
}

func TestIPv6RoundTripProperty(t *testing.T) {
	f := func(tc byte, fl uint32, pl uint16, nh, hl byte, srcRaw, dstRaw [16]byte) bool {
		h := Header6{
			TrafficClass:  tc,
			FlowLabel:     fl & 0xfffff,
			PayloadLength: pl,
			NextHeader:    nh,
			HopLimit:      hl,
			Src:           Addr6(srcRaw),
			Dst:           Addr6(dstRaw),
		}
		got, err := Parse6(Marshal6(&h))
		return err == nil && got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParse6Errors(t *testing.T) {
	if _, err := Parse6(make([]byte, 10)); err == nil {
		t.Error("short buffer accepted")
	}
	b := Marshal6(&Header6{HopLimit: 1})
	b[0] = 4 << 4
	if _, err := Parse6(b); err == nil {
		t.Error("wrong version accepted")
	}
}

func TestIPv4MarshalParseRoundTrip(t *testing.T) {
	h := Header4{
		TOS:      0x10,
		TotalLen: 1500,
		ID:       42,
		DontFrag: true,
		TTL:      64,
		Protocol: ProtoTCP,
		Src:      V4(10, 0, 0, 1),
		Dst:      V4(10, 0, 0, 2),
	}
	b := Marshal4(&h)
	if !Valid(b) {
		t.Fatal("marshaled header fails its own checksum")
	}
	got, err := Parse4(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, h)
	}
}

func TestIPv4RoundTripProperty(t *testing.T) {
	f := func(tos byte, tl, id uint16, df, mf bool, fo uint16, ttl, proto byte, src, dst [4]byte) bool {
		h := Header4{
			TOS: tos, TotalLen: tl, ID: id,
			DontFrag: df, MoreFrags: mf, FragOffset: fo & 0x1fff,
			TTL: ttl, Protocol: proto,
			Src: Addr4(src), Dst: Addr4(dst),
		}
		got, err := Parse4(Marshal4(&h))
		return err == nil && got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParse4RejectsCorruption(t *testing.T) {
	b := Marshal4(&Header4{TotalLen: 40, TTL: 64, Protocol: ProtoUDP})
	b[8] ^= 0xff // corrupt TTL
	if _, err := Parse4(b); err == nil {
		t.Error("corrupted header accepted")
	}
	if _, err := Parse4(make([]byte, 5)); err == nil {
		t.Error("short header accepted")
	}
	b2 := Marshal4(&Header4{TotalLen: 40})
	b2[0] = 0x46 // ihl=6 words: options, unsupported
	if _, err := Parse4(b2); err == nil {
		t.Error("options accepted")
	}
}

func TestPseudoSum6MatchesManual(t *testing.T) {
	src, dst := NodeAddr6(0), NodeAddr6(1)
	upperLen := 99
	var manual []byte
	manual = append(manual, src[:]...)
	manual = append(manual, dst[:]...)
	var lenb [4]byte
	binary.BigEndian.PutUint32(lenb[:], uint32(upperLen))
	manual = append(manual, lenb[:]...)
	manual = append(manual, 0, 0, 0, ProtoUDP)
	if Fold(PseudoSum6(src, dst, ProtoUDP, upperLen)) != Fold(Sum(0, manual)) {
		t.Error("PseudoSum6 disagrees with manual pseudo-header")
	}
}

func TestTransportChecksumValidatesEndToEnd(t *testing.T) {
	src, dst := NodeAddr6(3), NodeAddr6(4)
	hdr := []byte{0x12, 0x34, 0x00, 0x50, 0, 0, 0, 0} // checksum field zeroed
	payload := buf.Pattern(37, 5)
	ck := TransportChecksum6(src, dst, ProtoUDP, hdr, payload)
	// Receiver-side verification: sum pseudo-header + hdr-with-checksum + payload = all ones.
	full := append(append([]byte{}, hdr...), payload.Data()...)
	full[6], full[7] = byte(ck>>8), byte(ck)
	sum := PseudoSum6(src, dst, ProtoUDP, len(full))
	if Fold(Sum(sum, full)) != 0xffff {
		t.Error("transport checksum does not validate end to end")
	}
	copy(hdr, full)
	if !TransportValid6(src, dst, ProtoUDP, hdr, payload) {
		t.Error("TransportValid6 rejects its twin's checksum")
	}
	hdr[1] ^= 0x04
	if TransportValid6(src, dst, ProtoUDP, hdr, payload) {
		t.Error("TransportValid6 accepts a flipped header bit")
	}
}

func TestTransportChecksum4ValidatesEndToEnd(t *testing.T) {
	src, dst := V4(10, 0, 0, 1), V4(10, 0, 0, 2)
	hdr := make([]byte, 20)
	payload := buf.Pattern(11, 9)
	ck := TransportChecksum4(src, dst, ProtoTCP, hdr, payload)
	full := append(append([]byte{}, hdr...), payload.Data()...)
	binary.BigEndian.PutUint16(full[16:], ck)
	sum := PseudoSum4(src, dst, ProtoTCP, len(full))
	if Fold(Sum(sum, full)) != 0xffff {
		t.Error("ipv4 transport checksum does not validate end to end")
	}
	copy(hdr, full)
	if !TransportValid4(src, dst, ProtoTCP, hdr, payload) {
		t.Error("TransportValid4 rejects its twin's checksum")
	}
	full[len(full)-1] ^= 0x80
	if TransportValid4(src, dst, ProtoTCP, hdr, buf.Bytes(full[len(hdr):])) {
		t.Error("TransportValid4 accepts a flipped payload bit")
	}
}

func TestRouteTables(t *testing.T) {
	t6 := NewTable6()
	t6.Add(NodeAddr6(0), 7)
	if got, err := t6.Lookup(NodeAddr6(0)); err != nil || got != 7 {
		t.Errorf("Lookup = %d, %v", got, err)
	}
	if _, err := t6.Lookup(NodeAddr6(9)); err == nil {
		t.Error("missing route resolved")
	}
	t6.Add(NodeAddr6(0), 8)
	if got, _ := t6.Lookup(NodeAddr6(0)); got != 8 {
		t.Error("overwrite did not take")
	}
	if t6.Len() != 1 {
		t.Errorf("Len = %d", t6.Len())
	}

}

package inet

import (
	"bytes"
	"testing"
)

// FuzzParse4 hammers the IPv4 header parser with arbitrary bytes: it must
// return an error or a header, never panic, and anything it accepts must
// survive a marshal/re-parse round trip.
func FuzzParse4(f *testing.F) {
	valid := Marshal4(&Header4{
		TOS: 0x10, TotalLen: 1500, ID: 7, DontFrag: true, TTL: 64,
		Protocol: ProtoTCP, Src: NodeAddr4(0), Dst: NodeAddr4(1),
	})
	f.Add(valid)
	f.Add(valid[:19])                         // one byte short
	f.Add(valid[:0])                          // empty
	f.Add(append([]byte{0x60}, valid[1:]...)) // version 6 in a v4 parser
	f.Add(append([]byte{0x46}, valid[1:]...)) // IHL=6: options
	corrupt := bytes.Clone(valid)
	corrupt[10] ^= 0xff // break the header checksum
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, b []byte) {
		h, err := Parse4(b)
		if err != nil {
			return
		}
		got, err2 := Parse4(Marshal4(&h))
		if err2 != nil {
			t.Fatalf("accepted header does not re-parse: %v", err2)
		}
		if got != h {
			t.Fatalf("round trip mismatch: %+v vs %+v", got, h)
		}
	})
}

// FuzzSum holds the word-at-a-time Sum to the two-byte reference loop on
// arbitrary bytes and initial sums, at every load alignment 0-7.
func FuzzSum(f *testing.F) {
	f.Add(uint32(0), []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7})
	f.Add(uint32(0xffffffff), []byte{0, 1})
	f.Add(uint32(0x5ffff), bytes.Repeat([]byte{0xff}, 77))
	f.Add(uint32(0xffff), []byte{})
	f.Fuzz(func(t *testing.T, initial uint32, data []byte) {
		for off := 0; off <= 7 && off <= len(data); off++ {
			checkSum(t, initial, data[off:], "fuzz")
		}
	})
}

// FuzzParse6 does the same for the IPv6 fixed header.
func FuzzParse6(f *testing.F) {
	valid := Marshal6(&Header6{
		TrafficClass: 3, FlowLabel: 0xbeef, PayloadLength: 9000,
		NextHeader: ProtoTCP, HopLimit: DefaultHopLimit,
		Src: NodeAddr6(0), Dst: NodeAddr6(1),
	})
	f.Add(valid)
	f.Add(valid[:39])
	f.Add(valid[:0])
	f.Add(append([]byte{0x40}, valid[1:]...)) // version 4 in a v6 parser
	f.Fuzz(func(t *testing.T, b []byte) {
		h, err := Parse6(b)
		if err != nil {
			return
		}
		got, err2 := Parse6(Marshal6(&h))
		if err2 != nil {
			t.Fatalf("accepted header does not re-parse: %v", err2)
		}
		if got != h {
			t.Fatalf("round trip mismatch: %+v vs %+v", got, h)
		}
	})
}

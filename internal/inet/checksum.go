// Package inet implements the inter-network protocol substrate of QPIP:
// the Internet checksum, IPv4 and IPv6 header marshaling, addressing, and
// the static route/neighbor tables the prototype used (paper §4.1: "Address
// resolution is provided by a static table that maps IPv6 addresses to
// switch routes").
package inet

import (
	"encoding/binary"
	"math/bits"

	"repro/internal/buf"
)

// Sum adds data to a one's-complement running sum that starts from an
// initial partial sum. Byte slices of odd length are padded with a zero
// byte, per RFC 1071.
//
// It rests on two facts from RFC 1071 §2. The one's-complement sum does not
// depend on byte order: swapping the bytes of every word multiplies the sum
// by 2^8 mod 0xffff, so a sum of little-endian words, folded to 16 bits and
// byte-swapped, is congruent to the big-endian one. And partial sums can be
// kept in parallel lanes and folded once at the end. So on an amd64 CPU
// with AVX2 (found once, from CPUID and XGETBV), a vector kernel adds every
// 64-byte-multiple prefix as little-endian 16-bit words in 32-bit lanes
// (sum_amd64.s), at most 4 MiB per call so that no lane can wrap, and Sum
// folds, swaps and adds each call's result. The rest of data, and all of
// it on other CPUs and architectures, goes to the generic word loop.
//
// The result is congruent mod 0xffff to the 16-bit word sum, and only
// Fold of it is meaningful: Fold(Sum(init, data)) is the RFC 1071 value,
// while the raw uint32 depends on how the carries happened to fold. The
// accumulator never wraps, so this holds at any length and for any
// initial value.
func Sum(initial uint32, data []byte) uint32 { return sum(uint64(initial), data, haveAVX2) }

// sum adds data to the 64-bit running sum s, through the vector kernel
// first when vector is set, and folds the total to 32 bits. With vector
// false it is the generic word loop alone, which the tests hold the kernel
// to. The loop uses RFC 1071 §2's deferred carries on 64-bit words:
// big-endian 8-byte loads, four to a 32-byte block, chained through
// bits.Add64. Each block's carry-out is a 2^64 that stands for an
// end-around +1; it is counted once per block, off the sum's dependency
// chain, and added back at the end. Then come 8-, 4-, 2- and 1-byte tail
// steps. Because 2^16 ≡ 1 (mod 0xffff), a 64-bit word sums to the same
// residue as its four 16-bit words, so any 16-bit-aligned placement of the
// tail is correct.
func sum(s uint64, data []byte, vector bool) uint32 {
	if vector && len(data) >= 64 {
		s, data = sumVector(s, data)
	}
	carries := uint64(0)
	for ; len(data) >= 32; data = data[32:] {
		var c uint64
		s, c = bits.Add64(s, binary.BigEndian.Uint64(data), 0)
		s, c = bits.Add64(s, binary.BigEndian.Uint64(data[8:]), c)
		s, c = bits.Add64(s, binary.BigEndian.Uint64(data[16:]), c)
		s, c = bits.Add64(s, binary.BigEndian.Uint64(data[24:]), c)
		carries += c
	}
	// The tail is at most 31 bytes: one carry chain across it.
	var c uint64
	for ; len(data) >= 8; data = data[8:] {
		s, c = bits.Add64(s, binary.BigEndian.Uint64(data), c)
	}
	if len(data) >= 4 {
		s, c = bits.Add64(s, uint64(binary.BigEndian.Uint32(data)), c)
		data = data[4:]
	}
	if len(data) >= 2 {
		s, c = bits.Add64(s, uint64(binary.BigEndian.Uint16(data)), c)
		data = data[2:]
	}
	if len(data) == 1 {
		s, c = bits.Add64(s, uint64(data[0])<<8, c)
	}
	// carries counts blocks, so it is far below 2^64: when this add
	// carries out, s is left smaller than carries and s+c cannot wrap.
	s, c = bits.Add64(s, carries, c)
	s += c
	lo, c32 := bits.Add32(uint32(s), uint32(s>>32), 0)
	return lo + c32
}

// SumBuf adds a payload buffer to a running sum. Virtual buffers (implicit
// zeros) contribute nothing, but odd-length virtual buffers still shift the
// byte alignment of subsequent data; callers in this codebase always place
// payload last, so no alignment handling is needed.
func SumBuf(initial uint32, b buf.Buf) uint32 {
	if b.IsVirtual() || b.Len() == 0 {
		return initial
	}
	return Sum(initial, b.Data())
}

// Fold reduces a running sum to a 16-bit one's-complement checksum value
// (not yet inverted).
func Fold(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + sum>>16
	}
	return uint16(sum)
}

// Finish folds and inverts a running sum, producing the value stored in a
// checksum field. An all-zero result is returned as 0xffff for UDP, but that
// substitution is protocol-specific and left to callers.
func Finish(sum uint32) uint16 {
	return ^Fold(sum)
}

// Checksum computes the complete Internet checksum of data.
func Checksum(data []byte) uint16 { return Finish(Sum(0, data)) }

// Valid reports whether data (which includes its checksum field) sums to
// the all-ones pattern required by RFC 1071.
func Valid(data []byte) bool { return Fold(Sum(0, data)) == 0xffff }

package inet

import "math/bits"

// maxChunk is the most sumAVX2 takes in one call: 65 536 blocks of 64
// bytes. Each 32-bit lane gains at most 0xffff per block, so it stays
// below 65 536 · 0xffff < 2^32 and cannot wrap.
const maxChunk = 64 << 16

// haveAVX2 is set once, from the CPU alone: the kernel runs only where
// the CPU has AVX2 and the OS saves the YMM registers.
var haveAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports CPUID.1:ECX OSXSAVE and AVX, CPUID.7:EBX AVX2, and
// XCR0 bits 1 and 2 (SSE and AVX state enabled by the OS).
func cpuHasAVX2() bool {
	const (
		osxsave = 1 << 27 // CPUID.1:ECX
		avx     = 1 << 28 // CPUID.1:ECX
		avx2    = 1 << 5  // CPUID.7:EBX
	)
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// sumVector adds data's 64-byte-multiple prefix to the running sum s with
// the AVX2 kernel and returns the new sum and the rest of data. The kernel
// sums little-endian words, so each chunk's total is folded to 16 bits and
// byte-swapped before it is added (see Sum); the fold keeps a nonzero
// total nonzero, so s stays zero only while every byte is.
func sumVector(s uint64, data []byte) (uint64, []byte) {
	for len(data) >= 64 {
		n := min(len(data)&^63, maxChunk)
		w := sumAVX2(data[:n])
		for w > 0xffff {
			w = w&0xffff + w>>16
		}
		s += uint64(bits.ReverseBytes16(uint16(w)))
		data = data[n:]
	}
	return s, data
}

// sumAVX2 returns the sum of b's little-endian 16-bit words. len(b) must
// be a multiple of 64 and at most maxChunk.
//
//go:noescape
func sumAVX2(b []byte) uint64

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

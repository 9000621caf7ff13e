package inet

import (
	"fmt"
	"testing"
)

// benchSizes are an IPv6 pseudo-header's length/protocol tail, a TCP or
// IPv4 header, a whole IPv6 pseudo-header, an Ethernet MTU and a 16 KiB
// Myrinet record.
var benchSizes = []int{8, 20, 40, 1500, 16384}

var benchSink uint32

func benchSum(b *testing.B, sum func(uint32, []byte) uint32) {
	for _, n := range benchSizes {
		data := randBytes(n)
		b.Run(fmt.Sprintf("%dB", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink += sum(0, data)
			}
		})
	}
}

// BenchmarkSum is the checksum at header and payload sizes: the AVX2
// kernel on every 64-byte-multiple prefix where the CPU has it. The
// closure calls Sum directly, as its callers do, so that Sum inlines.
func BenchmarkSum(b *testing.B) {
	benchSum(b, func(initial uint32, data []byte) uint32 { return Sum(initial, data) })
}

// BenchmarkSumGeneric is the generic word loop alone, what CPUs without
// AVX2 and other architectures run.
func BenchmarkSumGeneric(b *testing.B) {
	benchSum(b, func(initial uint32, data []byte) uint32 { return sum(uint64(initial), data, false) })
}

// BenchmarkSumReference is the two-byte reference loop at the same sizes,
// the A/B baseline for EXPERIMENTS.md.
func BenchmarkSumReference(b *testing.B) { benchSum(b, refSum) }

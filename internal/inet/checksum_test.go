package inet

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/buf"
)

// refSum is the checksum loop as it was first written, two bytes per
// iteration, kept as the reference the word-at-a-time Sum is held to. Its
// accumulator is widened to uint64 and folded to 32 bits at the end, so it
// is correct at any length and initial value; only Fold of its result is
// compared.
func refSum(initial uint32, data []byte) uint32 {
	sum := uint64(initial)
	n := len(data)
	i := 0
	for ; i+1 < n; i += 2 {
		sum += uint64(data[i])<<8 | uint64(data[i+1])
	}
	if i < n {
		sum += uint64(data[i]) << 8
	}
	for sum>>32 != 0 {
		sum = sum&0xffffffff + sum>>32
	}
	return uint32(sum)
}

// randBytes returns n deterministic pseudo-random bytes (xorshift64).
func randBytes(n int) []byte {
	x := uint64(0x9E3779B97F4A7C15)
	b := make([]byte, n)
	for i := range b {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b[i] = byte(x >> 56)
	}
	return b
}

// checkSum fails t when Sum (the vector kernel's path where the CPU has
// one), the generic word loop and refSum fold differently on data.
func checkSum(t *testing.T, initial uint32, data []byte, what string) {
	t.Helper()
	want := Fold(refSum(initial, data))
	if got := Fold(Sum(initial, data)); got != want {
		t.Fatalf("%s: Fold(Sum(%#x, %d bytes)) = %#04x, reference %#04x", what, initial, len(data), got, want)
	}
	if got := Fold(sum(uint64(initial), data, false)); got != want {
		t.Fatalf("%s: Fold(sum(%#x, false, %d bytes)) = %#04x, reference %#04x", what, initial, len(data), got, want)
	}
}

// TestSumMatchesReference covers every block/tail split of the vector
// kernel's 64-byte blocks and the word loop's 32-byte blocks (lengths
// 0-1024, then an Ethernet MTU, a jumbo frame and a 16 KiB record), every
// load alignment within a cache line (start offsets 0-63), initial values
// that force end-around carries plus random ones, and the all-zero and
// all-ones patterns next to random bytes.
func TestSumMatchesReference(t *testing.T) {
	const maxLen, maxOff = 1024, 63
	lengths := []int{1500, 9000, 16384}
	for n := 0; n <= maxLen; n++ {
		lengths = append(lengths, n)
	}
	patterns := map[string][]byte{
		"random": randBytes(16384 + maxOff),
		"zeros":  make([]byte, 16384+maxOff),
		"ones":   bytes.Repeat([]byte{0xff}, 16384+maxOff),
	}
	rng := rand.New(rand.NewSource(1))
	for name, p := range patterns {
		for _, n := range lengths {
			initials := []uint32{0, 0xffffffff, rng.Uint32()}
			if n <= 300 {
				initials = append(initials, 0xffff, 0x5ffff)
			}
			for _, initial := range initials {
				for off := 0; off <= maxOff; off++ {
					checkSum(t, initial, p[off:off+n], name)
				}
			}
		}
	}
}

// TestSumNoWrap pins the no-wrap guarantee: the two-byte uint32 loop lost
// a carry once initial + n·0xffff passed 2^32, so a large all-ones input
// or an initial sum near 2^32 checksummed wrong. The vector kernel's
// 32-bit lanes would wrap the same way past 65 536 blocks of 0xff without
// its 4 MiB chunk bound, which the lengths past 4 MiB cross.
func TestSumNoWrap(t *testing.T) {
	if got := Fold(Sum(0xffffffff, []byte{0, 1})); got != 0x0001 {
		t.Errorf("Fold(Sum(0xffffffff, 00 01)) = %#04x, want 0x0001", got)
	}
	const chunk = 4 << 20 // the kernel's bound, maxChunk in sum_amd64.go
	ones := bytes.Repeat([]byte{0xff}, 2*chunk+128)
	for _, n := range []int{1 << 20, chunk + 64, 2*chunk + 128} {
		what := fmt.Sprintf("%d bytes of 0xff", n)
		checkSum(t, 0, ones[:n], what)
		checkSum(t, 0xffffffff, ones[:n], what)
	}
}

// TestChecksumPathsAllocFree pins the sender and receiver checksum paths
// at zero allocations.
func TestChecksumPathsAllocFree(t *testing.T) {
	src, dst := NodeAddr6(0), NodeAddr6(1)
	hdr := make([]byte, 20)
	payload := buf.Pattern(1500, 7)
	for name, f := range map[string]func(){
		"Sum":                func() { benchSink += Sum(0, payload.Data()) },
		"TransportChecksum6": func() { benchSink += uint32(TransportChecksum6(src, dst, ProtoTCP, hdr, payload)) },
		"TransportValid6": func() {
			if TransportValid6(src, dst, ProtoTCP, hdr, payload) {
				benchSink++
			}
		},
	} {
		if avg := testing.AllocsPerRun(100, f); avg != 0 {
			t.Errorf("%s allocates %.2f objects/op, want 0", name, avg)
		}
	}
}

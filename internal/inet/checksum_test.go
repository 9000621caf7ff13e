package inet

import (
	"bytes"
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

// checkSum fails t when Sum and refSum fold differently on data.
func checkSum(t *testing.T, initial uint32, data []byte, what string) {
	t.Helper()
	if got, want := Fold(Sum(initial, data)), Fold(refSum(initial, data)); got != want {
		t.Fatalf("%s: Fold(Sum(%#x, %d bytes)) = %#04x, reference %#04x", what, initial, len(data), got, want)
	}
}

// TestSumMatchesReference covers every block/tail split the word loop
// has (lengths 0-300), every load alignment (start offsets 0-7), initial
// values that force end-around carries, and the all-zero and all-ones
// patterns next to random bytes.
func TestSumMatchesReference(t *testing.T) {
	const maxLen, maxOff = 300, 7
	patterns := map[string][]byte{
		"random": randBytes(maxLen + maxOff),
		"zeros":  make([]byte, maxLen+maxOff),
		"ones":   bytes.Repeat([]byte{0xff}, maxLen+maxOff),
	}
	for name, p := range patterns {
		for _, initial := range []uint32{0, 0xffff, 0x5ffff, 0xffffffff} {
			for off := 0; off <= maxOff; off++ {
				for n := 0; n <= maxLen; n++ {
					checkSum(t, initial, p[off:off+n], name)
				}
			}
		}
	}
}

// TestSumNoWrap pins the no-wrap guarantee: the two-byte uint32 loop lost
// a carry once initial + n·0xffff passed 2^32, so a large all-ones input
// or an initial sum near 2^32 checksummed wrong.
func TestSumNoWrap(t *testing.T) {
	if got := Fold(Sum(0xffffffff, []byte{0, 1})); got != 0x0001 {
		t.Errorf("Fold(Sum(0xffffffff, 00 01)) = %#04x, want 0x0001", got)
	}
	ones := bytes.Repeat([]byte{0xff}, 1<<20)
	checkSum(t, 0, ones, "1 MiB of 0xff")
	checkSum(t, 0xffffffff, ones, "1 MiB of 0xff")
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

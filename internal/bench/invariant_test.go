package bench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/params"
	"repro/internal/qpipnic"
)

// ttcpEvents runs one QPIP ttcp transfer of totalBytes and reports the
// number of events the engine fired.
func ttcpEvents(totalBytes int) uint64 {
	var cl *core.Cluster
	qpipTtcp(params.MTUQPIP, qpipnic.ChecksumEmulatedHW, TtcpChunk, totalBytes, nil,
		func(c *core.Cluster) { cl = c })
	return cl.FiredTotal()
}

// TestTtcpEventCountInvariant pins the exact number of events a ttcp
// transfer fires. Every optimization in this simulator is supposed to be
// pure mechanism — pooling, free lists, and pre-bound continuations change
// how events are allocated and dispatched, never which events fire or in
// what order. A drift in these counts means an "optimization" changed
// simulated behavior, which is a correctness bug regardless of how much
// faster it runs.
func TestTtcpEventCountInvariant(t *testing.T) {
	for _, tc := range []struct {
		bytes int
		want  uint64
	}{
		{4 << 20, 9300},
		{32 << 20, 75000},
	} {
		if got := ttcpEvents(tc.bytes); got != tc.want {
			t.Errorf("bytes=%d: events fired = %d, want %d", tc.bytes, got, tc.want)
		}
	}
}

// BenchmarkTtcp runs the full QPIP ttcp transfer — the profiling entry
// point for simulator-speed work
// (go test -bench Ttcp -cpuprofile cpu.out ./internal/bench).
func BenchmarkTtcp(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ttcpEvents(8 << 20)
	}
}

package fabric

import (
	"testing"

	"repro/internal/params"
	"repro/internal/pool"
	"repro/internal/sim"
)

// benchFabric builds a two-port Myrinet-style fabric and reports the ports.
func benchFabric(eng *sim.Engine, delivered *int) (*Fabric, int, int) {
	fab := New(eng, Config{
		Name:       "bench",
		Bandwidth:  params.MyrinetBandwidth,
		CutThrough: true,
		HopLatency: 500 * sim.Nanosecond,
		PropDelay:  100 * sim.Nanosecond,
	})
	src := fab.Attach(nil)
	dst := fab.Attach(func(f *Frame) { *delivered++ })
	return fab, src, dst
}

// BenchmarkFrameTransit measures one frame's full fabric trip — two link
// serializations, switch hop, delivery — including the event-engine work
// that carries it. With the frame pool and event free list this is the
// steady-state per-packet fabric overhead of every simulated run.
func BenchmarkFrameTransit(b *testing.B) {
	eng := sim.NewEngine()
	delivered := 0
	fab, src, dst := benchFabric(eng, &delivered)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fab.Send(NewFrame(src, dst, 1500, nil), nil)
		eng.Run()
	}
	if delivered != b.N {
		b.Fatalf("delivered %d frames, want %d", delivered, b.N)
	}
}

// TestFrameTransitAllocFree pins the steady-state fabric allocation budget
// at zero: frames and events recycle, and the transit continuations are
// bound to the pooled frame once, so a fault-free trip allocates nothing.
// The guard fails if anything returns to allocating per-packet state.
func TestFrameTransitAllocFree(t *testing.T) {
	if pool.RaceEnabled {
		t.Skip("race-mode sync.Pool drops recycles by design")
	}
	eng := sim.NewEngine()
	delivered := 0
	fab, src, dst := benchFabric(eng, &delivered)
	step := func() {
		fab.Send(NewFrame(src, dst, 1500, nil), nil)
		eng.Run()
	}
	for i := 0; i < 64; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(200, step); avg > 0.25 {
		t.Errorf("frame transit allocates %.2f objects/op after warmup, want 0", avg)
	}
}

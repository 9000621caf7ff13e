package hw

import (
	"testing"

	"repro/internal/params"
	"repro/internal/sim"
)

func bus(eng *sim.Engine) *PCIBus {
	return NewPCIBus(eng, "pci", params.PCIBandwidth, params.PCIDMASetup, params.PCIWriteLatency)
}

func TestDMATiming(t *testing.T) {
	eng := sim.NewEngine()
	p := bus(eng)
	var done sim.Time
	p.DMA(16384, "payload", func() { done = eng.Now() })
	eng.Run()
	bw := float64(params.PCIBandwidth)
	want := params.PCIDMASetup + sim.Time(16384*1e9/bw)
	if done != want {
		t.Errorf("DMA finished at %v, want %v", done, want)
	}
	tr, by := p.Stats()
	if tr != 1 || by != 16384 {
		t.Errorf("stats = %d transfers, %d bytes", tr, by)
	}
}

func TestDMAContention(t *testing.T) {
	// Two engines sharing the bus: transfers serialize.
	eng := sim.NewEngine()
	p := bus(eng)
	var t1, t2 sim.Time
	p.DMA(8192, "a", func() { t1 = eng.Now() })
	p.DMA(8192, "b", func() { t2 = eng.Now() })
	eng.Run()
	if t2 != 2*t1 {
		t.Errorf("second DMA at %v, want %v (serialized)", t2, 2*t1)
	}
}

func TestDMAZeroLengthOnlySetup(t *testing.T) {
	eng := sim.NewEngine()
	p := bus(eng)
	var done sim.Time
	p.DMA(0, "desc", func() { done = eng.Now() })
	eng.Run()
	if done != params.PCIDMASetup {
		t.Errorf("zero-length DMA took %v", done)
	}
}

func TestDMANegativePanics(t *testing.T) {
	eng := sim.NewEngine()
	p := bus(eng)
	defer func() {
		if recover() == nil {
			t.Error("negative DMA accepted")
		}
	}()
	p.DMA(-1, "bad", nil)
}

func TestPIOWrite(t *testing.T) {
	eng := sim.NewEngine()
	p := bus(eng)
	var done sim.Time
	p.PIOWrite("doorbell", func() { done = eng.Now() })
	eng.Run()
	if done != params.PCIWriteLatency {
		t.Errorf("PIO write took %v", done)
	}
}

func TestDoorbellFIFOOrder(t *testing.T) {
	d := NewDoorbell(8)
	for i := uint64(0); i < 5; i++ {
		if !d.Ring(i) {
			t.Fatalf("ring %d rejected", i)
		}
	}
	var v [1]uint64
	for i := uint64(0); i < 5; i++ {
		if n := d.PopN(v[:]); n != 1 || v[0] != i {
			t.Fatalf("pop %d = %d, %d", i, v[0], n)
		}
	}
	if d.PopN(v[:]) != 0 {
		t.Error("pop from empty FIFO succeeded")
	}
}

func TestDoorbellOverflowDrops(t *testing.T) {
	d := NewDoorbell(2)
	d.Ring(1)
	d.Ring(2)
	if d.Ring(3) {
		t.Error("overflow ring accepted")
	}
	if d.Drops() != 1 {
		t.Errorf("drops = %d", d.Drops())
	}
	if d.Len() != 2 {
		t.Errorf("len = %d", d.Len())
	}
}

func TestDoorbellOnRingEdgeTriggered(t *testing.T) {
	d := NewDoorbell(8)
	wakeups := 0
	d.OnRing = func() { wakeups++ }
	d.Ring(1)
	d.Ring(2) // FIFO non-empty: no new wakeup
	if wakeups != 1 {
		t.Fatalf("wakeups = %d after two rings, want 1", wakeups)
	}
	d.PopN(make([]uint64, 2))
	d.Ring(3)
	if wakeups != 2 {
		t.Fatalf("wakeups = %d after drain and re-ring, want 2", wakeups)
	}
}

func TestDoorbellPopNDrainsInOrder(t *testing.T) {
	d := NewDoorbell(8)
	for i := uint64(0); i < 5; i++ {
		d.Ring(i)
	}
	var dst [3]uint64
	if n := d.PopN(dst[:]); n != 3 || dst[0] != 0 || dst[1] != 1 || dst[2] != 2 {
		t.Fatalf("PopN = %d, dst = %v", n, dst)
	}
	if d.Len() != 2 {
		t.Fatalf("Len after partial drain = %d", d.Len())
	}
	if n := d.PopN(dst[:]); n != 2 || dst[0] != 3 || dst[1] != 4 {
		t.Fatalf("second PopN = %d, dst = %v", n, dst)
	}
	if n := d.PopN(dst[:]); n != 0 {
		t.Fatalf("PopN on empty FIFO = %d", n)
	}
	// Drained FIFO reuses its backing array.
	d.Ring(9)
	if n := d.PopN(dst[:]); n != 1 || dst[0] != 9 {
		t.Fatalf("PopN after drain = %d, dst = %v", n, dst)
	}
}

func TestDoorbellOnDropHook(t *testing.T) {
	d := NewDoorbell(1)
	drops := 0
	d.OnDrop = func() { drops++ }
	d.Ring(1)
	d.Ring(2)
	d.Ring(3)
	if drops != 2 || d.Drops() != 2 {
		t.Errorf("OnDrop ran %d times, Drops = %d; want 2, 2", drops, d.Drops())
	}
}

func TestIRQSetCoalesce(t *testing.T) {
	eng := sim.NewEngine()
	var got []int
	l := NewIRQLine(eng, func(n int) { got = append(got, n) })
	l.SetCoalesce(4, 100*sim.Microsecond)
	l.Raise()
	l.Raise()
	if l.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", l.Pending())
	}
	l.Raise()
	l.Raise()
	if l.Pending() != 0 {
		t.Fatalf("Pending after fire = %d, want 0", l.Pending())
	}
	eng.Run()
	if len(got) != 1 || got[0] != 4 {
		t.Errorf("ISR calls = %v, want [4]", got)
	}
}

func TestIRQImmediateWithoutCoalescing(t *testing.T) {
	eng := sim.NewEngine()
	var got []int
	l := NewIRQLine(eng, func(n int) { got = append(got, n) })
	l.Raise()
	l.Raise()
	eng.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 1 {
		t.Errorf("ISR calls = %v, want [1 1]", got)
	}
}

func TestIRQCountCoalescing(t *testing.T) {
	eng := sim.NewEngine()
	var got []int
	l := NewIRQLine(eng, func(n int) { got = append(got, n) })
	l.CoalescePkts = 4
	l.CoalesceDelay = 100 * sim.Microsecond
	for i := 0; i < 8; i++ {
		l.Raise()
	}
	eng.Run()
	if len(got) < 2 || got[0] != 4 || got[1] != 4 {
		t.Errorf("ISR calls = %v, want [4 4]", got)
	}
	if l.Fired() != 2 || l.Events() != 8 {
		t.Errorf("fired=%d events=%d", l.Fired(), l.Events())
	}
}

func TestIRQTimerFlushesPartialBatch(t *testing.T) {
	eng := sim.NewEngine()
	var got []int
	var at sim.Time
	l := NewIRQLine(eng, func(n int) { got = append(got, n); at = eng.Now() })
	l.CoalescePkts = 8
	l.CoalesceDelay = 70 * sim.Microsecond
	l.Raise()
	l.Raise()
	eng.Run()
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("ISR calls = %v, want [2]", got)
	}
	if at != 70*sim.Microsecond {
		t.Errorf("timer flush at %v, want 70us", at)
	}
}

func TestIRQTimerCancelledWhenCountHit(t *testing.T) {
	eng := sim.NewEngine()
	calls := 0
	l := NewIRQLine(eng, func(n int) { calls++ })
	l.CoalescePkts = 2
	l.CoalesceDelay = 70 * sim.Microsecond
	l.Raise()
	l.Raise() // hits count: fires, cancels timer
	eng.Run()
	if calls != 1 {
		t.Errorf("ISR ran %d times, want 1 (timer should be cancelled)", calls)
	}
}

package sim

import "testing"

func BenchmarkScheduleFire(b *testing.B) {
	e := NewEngine()
	nop := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(Time(i%1000), "bench", nop)
		e.step()
	}
}

func BenchmarkScheduleCancel(b *testing.B) {
	e := NewEngine()
	nop := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := e.After(Time(1000+i%777), "bench", nop)
		ev.Cancel()
	}
}

// BenchmarkTimerChurn models the tcp timer pattern: a standing far deadline
// that is repeatedly cancelled and re-armed while near events fire.
func BenchmarkTimerChurn(b *testing.B) {
	e := NewEngine()
	nop := func() {}
	var timer *Event
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if timer != nil {
			timer.Cancel()
			timer = nil
		}
		timer = e.After(200*Millisecond, "rexmt", nop)
		e.After(0, "work", nop)
		e.step()
	}
}

func BenchmarkParkWake(b *testing.B) {
	e := NewEngine()
	p := e.Spawn("bench", func(p *Proc) {
		for {
			p.Suspend()
		}
	})
	e.Run() // parks the process
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Wake()
	}
}

// TestScheduleFireAllocFree locks in the event free list: steady-state
// schedule/fire and schedule/cancel cycles on a warm wheel engine must not
// allocate at all.
func TestScheduleFireAllocFree(t *testing.T) {
	e := NewEngine()
	nop := func() {}
	// Warm up the free list and due buffer.
	for i := 0; i < 64; i++ {
		e.After(Time(i), "warm", nop)
	}
	e.Run()
	if n := testing.AllocsPerRun(1000, func() {
		e.After(100, "fire", nop)
		e.step()
	}); n != 0 {
		t.Fatalf("schedule+fire allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		ev := e.After(1000, "cancel", nop)
		ev.Cancel()
	}); n != 0 {
		t.Fatalf("schedule+cancel allocates %v/op, want 0", n)
	}
}

// TestParkWakeAllocFree locks in the park/wake handshake cost: waking a
// parked process must not allocate, and neither must one round of each
// timed park (schedule the wake, switch out, fire, switch back in).
func TestParkWakeAllocFree(t *testing.T) {
	e := NewEngine()
	p := e.Spawn("proc", func(p *Proc) {
		for {
			p.Suspend()
		}
	})
	e.Run()
	if n := testing.AllocsPerRun(1000, func() { p.Wake() }); n != 0 {
		t.Fatalf("park/wake allocates %v/op, want 0", n)
	}

	srv := NewServer(e, "srv")
	cpu := NewCPU(e, "cpu", 1e9)
	for _, tc := range []struct {
		name string
		park func(p *Proc)
	}{
		{"Sleep", func(p *Proc) { p.Sleep(10) }},
		{"Use", func(p *Proc) { p.Use(srv, 10) }},
		{"UseCycles", func(p *Proc) { p.UseCycles(cpu, 10) }},
	} {
		e.Spawn(tc.name, func(p *Proc) {
			for {
				tc.park(p)
			}
		})
		e.step() // spawn: the proc runs to its first park
		if n := testing.AllocsPerRun(1000, func() { e.step() }); n != 0 {
			t.Fatalf("%s round allocates %v/op, want 0", tc.name, n)
		}
		// The proc stays parked forever; drop its pending wake so the next
		// case steps only its own proc.
		if ev, ok := e.peek(); ok {
			ev.Cancel()
		}
	}
}

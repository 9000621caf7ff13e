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

// BenchmarkSleepInPlace is a process sleeping with nothing else queued:
// every wake-up is the engine's next event and fires in place, where
// BenchmarkParkWake pays a true switch per op.
func BenchmarkSleepInPlace(b *testing.B) {
	e := NewEngine()
	e.Spawn("bench", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkRunUntilEpochs models the sharded shape: a standing 200 ms
// timer that is cancelled and re-armed while near events fire, driven by
// RunUntil(now+L) epoch steps that stop short of the far timer, with the
// runner's NextAt peek before every epoch.
func BenchmarkRunUntilEpochs(b *testing.B) {
	const lookahead = 400
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
		e.After(Time(1+i%lookahead), "work", nop)
		if next, ok := e.NextAt(); ok {
			e.RunUntil(next + lookahead - 1)
		}
	}
}

// TestScheduleFireAllocFree locks in the event free list: steady-state
// schedule/fire and schedule/cancel cycles on a warm wheel engine must not
// allocate at all, and neither must an epoch that stops short of a far
// timer, peeks it, and schedules behind it. Re-arming a timer in place
// (Rearm) must not allocate either.
func TestScheduleFireAllocFree(t *testing.T) {
	e := NewEngine()
	nop := func() {}
	// Warm up the free list.
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
	// A TCB timer re-armed after every segment, as both TCP hosts do.
	var ev *Event
	d := &deadline{ok: true}
	if n := testing.AllocsPerRun(1000, func() {
		d.at = int64(e.Now()) + 1000
		e.Rearm(&ev, d, "rearm", nop)
	}); n != 0 {
		t.Fatalf("Rearm allocates %v/op, want 0", n)
	}
	Disarm(&ev)
	far := e.After(Second, "far", nop)
	if n := testing.AllocsPerRun(1000, func() {
		e.RunFor(500)
		if at, ok := e.NextAt(); !ok || at != far.At() {
			t.Fatalf("NextAt = %v, %v; want the far timer at %v", at, ok, far.At())
		}
		e.After(100, "behind", nop)
	}); n != 0 {
		t.Fatalf("RunUntil+NextAt+At behind a far timer allocates %v/op, want 0", n)
	}
}

// TestParkWakeAllocFree locks in the park/wake handshake cost: waking a
// parked process must not allocate, and neither must one round of each
// timed park (schedule the wake, switch out, fire, switch back in), nor a
// RunUntil slice of own wake-ups that fire in place.
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

	for _, tc := range []struct {
		name string
		park func(p *Proc, srv *Server, cpu *CPU)
	}{
		{"Sleep", func(p *Proc, _ *Server, _ *CPU) { p.Sleep(10) }},
		{"Use", func(p *Proc, srv *Server, _ *CPU) { p.Use(srv, 10) }},
		{"UseCycles", func(p *Proc, _ *Server, cpu *CPU) { p.UseCycles(cpu, 10) }},
	} {
		// Forced parks: two processes wake at every tick, so each one's
		// next wake-up queues behind the other's and must park. A fresh
		// engine per case keeps the pending wakes out of the next case.
		e := NewEngine()
		srv, cpu := NewServer(e, "srv"), NewCPU(e, "cpu", 1e9)
		var resumes int
		for i := 0; i < 2; i++ {
			e.Spawn(tc.name, func(p *Proc) {
				countResumes(p, &resumes)
				for {
					tc.park(p, srv, cpu)
				}
			})
		}
		e.step() // spawns: each proc runs to its first park
		e.step()
		if n := testing.AllocsPerRun(1000, func() { e.step() }); n != 0 || resumes != 1001 {
			t.Fatalf("%s: forced-park round allocates %v/op with %d parks, want 0 with 1001", tc.name, n, resumes)
		}

		// In place: alone, the proc's every wake-up is the next event, so
		// a RunUntil slice fires 10 of them and parks once, at its limit.
		e = NewEngine()
		srv, cpu = NewServer(e, "srv"), NewCPU(e, "cpu", 1e9)
		resumes = 0
		e.Spawn(tc.name, func(p *Proc) {
			countResumes(p, &resumes)
			for {
				tc.park(p, srv, cpu)
			}
		})
		e.RunUntil(0)
		if n := testing.AllocsPerRun(1000, func() { e.RunFor(100) }); n != 0 || resumes != 1001 || e.Fired() != 1+10*1001 {
			t.Fatalf("%s: in-place round allocates %v/op with %d parks in %d events, want 0 with 1001 in %d",
				tc.name, n, resumes, e.Fired(), 1+10*1001)
		}
	}
}

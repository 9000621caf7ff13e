package sim

import (
	"strings"
	"testing"
)

func TestProcRunsAndFinishes(t *testing.T) {
	e := NewEngine()
	ran := false
	p := e.Spawn("worker", func(p *Proc) { ran = true })
	e.Run()
	if !ran || !p.Done() || p.Name() != "worker" {
		t.Fatalf("ran=%v done=%v name=%q", ran, p.Done(), p.Name())
	}
}

func TestProcSleepAdvancesClock(t *testing.T) {
	e := NewEngine()
	var woke Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(100 * Microsecond)
		woke = p.Now()
	})
	e.Run()
	if woke != 100*Microsecond {
		t.Errorf("woke at %v", woke)
	}
}

func TestProcSuspendWake(t *testing.T) {
	e := NewEngine()
	var order []string
	p := e.Spawn("waiter", func(p *Proc) {
		order = append(order, "before")
		p.Suspend()
		order = append(order, "after")
	})
	e.At(50, "waker", func() {
		order = append(order, "wake")
		p.Wake()
	})
	e.Run()
	want := []string{"before", "wake", "after"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestProcUseChargesServer(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "cpu")
	var done Time
	e.Spawn("compute", func(p *Proc) {
		p.Use(s, 500)
		done = p.Now()
	})
	e.Run()
	if done != 500 {
		t.Errorf("compute finished at %v", done)
	}
	if s.BusyTotal() != 500 {
		t.Errorf("server busy %v", s.BusyTotal())
	}
}

func TestProcUseCycles(t *testing.T) {
	e := NewEngine()
	c := NewCPU(e, "host", 550e6)
	e.Spawn("compute", func(p *Proc) { p.UseCycles(c, 550) })
	e.Run()
	if e.Now() != 1000 {
		t.Errorf("550 cycles at 550 MHz ended at %v ns", int64(e.Now()))
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var trace []string
		for _, name := range []string{"a", "b"} {
			name := name
			e.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					trace = append(trace, name)
					p.Sleep(10)
				}
			})
		}
		e.Run()
		return trace
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		again := run()
		for i := range first {
			if again[i] != first[i] {
				t.Fatalf("nondeterministic interleaving: %v vs %v", first, again)
			}
		}
	}
}

func TestProcProducerConsumer(t *testing.T) {
	e := NewEngine()
	var queue []int
	var consumer *Proc
	consumed := []int{}
	consumer = e.Spawn("consumer", func(p *Proc) {
		for len(consumed) < 5 {
			for len(queue) == 0 {
				p.Suspend()
			}
			v := queue[0]
			queue = queue[1:]
			consumed = append(consumed, v)
		}
	})
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(10)
			item := i
			// Hand off via an engine event, as a device would.
			p.Engine().After(0, "deliver", func() {
				queue = append(queue, item)
				if !consumer.Done() {
					consumer.Wake()
				}
			})
		}
	})
	e.Run()
	if len(consumed) != 5 {
		t.Fatalf("consumed %v", consumed)
	}
	for i, v := range consumed {
		if v != i {
			t.Fatalf("consumed %v", consumed)
		}
	}
}

func TestWakeDeadProcPanics(t *testing.T) {
	e := NewEngine()
	p := e.Spawn("short", func(p *Proc) {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("Wake on dead proc did not panic")
		}
	}()
	p.Wake()
}

// TestProcPanicSurfacesFromRun: a panic inside a process reaches the
// caller of Engine.Run as an ordinary, recoverable panic — whether it
// fires in the spawn slice or after a park — and leaves the process
// finished, so a later Wake reports it instead of resuming nothing.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	for _, parkFirst := range []bool{false, true} {
		e := NewEngine()
		p := e.Spawn("faulty", func(p *Proc) {
			if parkFirst {
				p.Sleep(10)
			}
			panic("proc bug")
		})
		r := func() (r any) {
			defer func() { r = recover() }()
			e.Run()
			return nil
		}()
		if r != "proc bug" {
			t.Fatalf("parkFirst=%v: Run recovered %v, want the proc's panic value", parkFirst, r)
		}
		if !p.Done() {
			t.Fatalf("parkFirst=%v: panicked proc not marked done", parkFirst)
		}
		r = func() (r any) {
			defer func() { r = recover() }()
			p.Wake()
			return nil
		}()
		if msg, _ := r.(string); !strings.Contains(msg, `finished process "faulty"`) {
			t.Fatalf("parkFirst=%v: Wake after panic recovered %v, want the finished-process panic", parkFirst, r)
		}
	}
}

// TestProcHandoffOrderClosedForm drives 100k producer→consumer hand-offs
// through engine events, round-robin over three consumers. Item i is
// produced after gaps 1 + j%5 for j <= i, so it must reach consumer i%3
// at T(i) = (i+1) + sum_{j<=i} j%5, and consumers must wake in exactly
// item order.
func TestProcHandoffOrderClosedForm(t *testing.T) {
	const items, nc = 100_000, 3
	type wake struct {
		consumer, item int
		at             Time
	}
	e := NewEngine()
	var (
		slot      [nc]int
		consumers [nc]*Proc
		log       = make([]wake, 0, items)
	)
	for c := 0; c < nc; c++ {
		c := c
		consumers[c] = e.Spawn("consumer", func(p *Proc) {
			for k := c; k < items; k += nc {
				p.Suspend()
				log = append(log, wake{c, slot[c], p.Now()})
			}
		})
	}
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < items; i++ {
			p.Sleep(Time(1 + i%5))
			c := i % nc
			slot[c] = i
			p.Engine().After(0, "deliver", consumers[c].WakeFn())
		}
	})
	e.Run()
	if len(log) != items {
		t.Fatalf("%d wakes, want %d", len(log), items)
	}
	for i, w := range log {
		full, rem := i/5, i%5 // sum_{j<=i} j%5 = 10*full + rem*(rem+1)/2
		want := wake{i % nc, i, Time(i + 1 + 10*full + rem*(rem+1)/2)}
		if w != want {
			t.Fatalf("wake %d = %+v, want %+v", i, w, want)
		}
	}
	for c, p := range consumers {
		if !p.Done() {
			t.Errorf("consumer %d still parked", c)
		}
	}
}

package sim

import (
	"fmt"
	"math/rand"
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

// countResumes wraps p's resume, from inside p, so a test sees every
// park-and-resume round trip from then on; an in-place wake-up adds none.
func countResumes(p *Proc, n *int) {
	resume := p.resume
	p.resume = func() (struct{}, bool) {
		*n++
		return resume()
	}
}

// TestInPlaceWake checks, one rule per row, when a process's own wake-up
// fires in place: each row drives a process and reports its log, and the
// number of parks it paid (resumes counted from inside the process).
func TestInPlaceWake(t *testing.T) {
	for _, tc := range []struct {
		name    string
		run     func(t *testing.T, e *Engine, log *[]string, resumes *int)
		want    []string
		resumes int
	}{
		{
			name: "a chain of own wake-ups runs in place",
			run: func(t *testing.T, e *Engine, log *[]string, resumes *int) {
				srv := NewServer(e, "cpu")
				e.Spawn("p", func(p *Proc) {
					countResumes(p, resumes)
					p.Sleep(10)
					p.Use(srv, 5)
					p.Sleep(0)
					*log = append(*log, fmt.Sprint("p@", int64(p.Now())))
				})
				e.Run()
			},
			want: []string{"p@15"},
		},
		{
			name: "an earlier-seq event at the same tick forces a park",
			run: func(t *testing.T, e *Engine, log *[]string, resumes *int) {
				e.Spawn("p", func(p *Proc) {
					countResumes(p, resumes)
					p.Sleep(10)
					*log = append(*log, fmt.Sprint("p@", int64(p.Now())))
				})
				e.At(10, "tie", func() { *log = append(*log, "tie") })
				e.Run()
			},
			want:    []string{"tie", "p@10"},
			resumes: 1,
		},
		{
			name: "RunUntil stops the chain at its limit",
			run: func(t *testing.T, e *Engine, log *[]string, resumes *int) {
				e.Spawn("p", func(p *Proc) {
					countResumes(p, resumes)
					for i := 0; i < 4; i++ {
						p.Sleep(10)
						*log = append(*log, fmt.Sprint("p@", int64(p.Now())))
					}
				})
				e.RunUntil(25)
				if len(*log) != 2 || e.Now() != 25 || e.Fired() != 3 {
					t.Fatalf("after RunUntil(25): log %v, now %v, fired %d; want 2 entries, 25, 3",
						*log, e.Now(), e.Fired())
				}
				e.RunUntil(100)
				ref := NewEngine()
				ref.Spawn("p", func(p *Proc) {
					for i := 0; i < 4; i++ {
						p.Sleep(10)
					}
				})
				ref.Run()
				if e.Fired() != ref.Fired() || e.Digest() != ref.Digest() {
					t.Fatalf("sliced run fired %d (digest %#x), one Run %d (%#x)",
						e.Fired(), e.Digest(), ref.Fired(), ref.Digest())
				}
			},
			want:    []string{"p@10", "p@20", "p@30", "p@40"},
			resumes: 1,
		},
		{
			name: "a callback with code after Wake forces a park",
			run: func(t *testing.T, e *Engine, log *[]string, resumes *int) {
				p := e.Spawn("p", func(p *Proc) {
					countResumes(p, resumes)
					p.Suspend()
					*log = append(*log, fmt.Sprint("woke@", int64(p.Now())))
					p.Sleep(5)
					*log = append(*log, fmt.Sprint("slept@", int64(p.Now())))
				})
				e.At(10, "waker", func() {
					p.Wake()
					*log = append(*log, "after Wake")
				})
				e.Run()
			},
			want:    []string{"woke@10", "after Wake", "slept@15"},
			resumes: 2,
		},
		{
			name: "a Stop issued by the process forces a park",
			run: func(t *testing.T, e *Engine, log *[]string, resumes *int) {
				e.Spawn("p", func(p *Proc) {
					countResumes(p, resumes)
					p.Sleep(10)
					p.Engine().Stop()
					p.Sleep(10)
					*log = append(*log, fmt.Sprint("p@", int64(p.Now())))
				})
				e.Run()
				if len(*log) != 0 || e.Now() != 10 {
					t.Fatalf("Run after Stop: log %v, now %v; want none, 10", *log, e.Now())
				}
				e.Run()
			},
			want:    []string{"p@20"},
			resumes: 1,
		},
		{
			name: "a Wake from outside any event forces a park",
			run: func(t *testing.T, e *Engine, log *[]string, resumes *int) {
				p := e.Spawn("p", func(p *Proc) {
					countResumes(p, resumes)
					p.Sleep(10)
					p.Suspend()
					p.Sleep(5)
					*log = append(*log, fmt.Sprint("p@", int64(p.Now())))
				})
				e.Run()
				p.Wake()
				if len(*log) != 0 || e.Now() != 10 || e.Pending() != 1 {
					t.Fatalf("after the outside Wake: log %v, now %v, pending %d; want none, 10, 1",
						*log, e.Now(), e.Pending())
				}
				e.Run()
			},
			want:    []string{"p@15"},
			resumes: 2,
		},
		{
			name: "RunUntil(-1) fires nothing",
			run: func(t *testing.T, e *Engine, log *[]string, resumes *int) {
				e.Spawn("p", func(p *Proc) { *log = append(*log, "ran") })
				e.RunUntil(-1)
				if e.Fired() != 0 || e.Pending() != 1 {
					t.Fatalf("RunUntil(-1): fired %d, pending %d; want 0, 1", e.Fired(), e.Pending())
				}
			},
		},
		{
			name: "a panic after in-place wake-ups surfaces from Run unchanged",
			run: func(t *testing.T, e *Engine, log *[]string, resumes *int) {
				p := e.Spawn("p", func(p *Proc) {
					countResumes(p, resumes)
					for i := 0; i < 3; i++ {
						p.Sleep(10)
					}
					*log = append(*log, fmt.Sprint("p@", int64(p.Now())))
					panic("proc bug")
				})
				r := func() (r any) {
					defer func() { r = recover() }()
					e.Run()
					return nil
				}()
				if r != "proc bug" || !p.Done() || e.Fired() != 4 {
					t.Fatalf("Run recovered %v, done %v, fired %d; want the proc's panic, true, 4",
						r, p.Done(), e.Fired())
				}
			},
			want: []string{"p@30"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var (
				log     []string
				resumes int
			)
			tc.run(t, NewEngine(), &log, &resumes)
			if fmt.Sprint(log) != fmt.Sprint(tc.want) || resumes != tc.resumes {
				t.Fatalf("log %v with %d parks, want %v with %d", log, resumes, tc.want, tc.resumes)
			}
		})
	}
}

// TestInPlaceWakeMatchesParked is the in-place wake-up's differential
// property. Randomized processes sleep, use a shared server, wait on each
// other and on stray events, under randomly sliced RunUntil calls. The
// reference spells every Sleep and Use as a callback that wakes a
// suspended process, which can never fire in place; the fired count, the
// digest and every process's timeline must match it. The rng is consulted
// in execution order, so any divergence snowballs.
func TestInPlaceWakeMatchesParked(t *testing.T) {
	type result struct {
		fired     uint64
		digest    uint64
		timelines [][]Time
	}
	run := func(seed int64, parked bool) result {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		srv := NewServer(e, "srv")
		delay := func() Time {
			switch r := rng.Intn(10); {
			case r < 3:
				return Time(rng.Intn(4)) * 10 // ties
			case r < 6:
				return Time(rng.Intn(300))
			case r < 9:
				return Time(1) << (8 * (1 + rng.Intn(3))) * Time(1+rng.Intn(3)) // levels 1-3
			default:
				return 5*Second + Time(rng.Intn(1000)) // overflow
			}
		}
		const nprocs = 4
		res := result{timelines: make([][]Time, nprocs)}
		procs := make([]*Proc, nprocs)
		waiting := make([]bool, nprocs)
		for i := range procs {
			i := i
			procs[i] = e.Spawn(fmt.Sprint("p", i), func(p *Proc) {
				for step := 0; step < 60; step++ {
					switch r := rng.Intn(10); {
					case r < 5:
						d := delay()
						if parked {
							e.After(d, p.sleepName, func() { p.Wake() })
							p.Suspend()
						} else {
							p.Sleep(d)
						}
					case r < 8:
						d := Time(rng.Intn(50))
						if parked {
							srv.Do(d, p.useName, func() { p.Wake() })
							p.Suspend()
						} else {
							p.Use(srv, d)
						}
					case r < 9:
						// Wake a waiting peer from a callback that goes
						// on after Wake, then carry on.
						e.After(delay(), "poke", func() {
							for j, w := range waiting {
								if w {
									waiting[j] = false
									procs[j].Wake()
									break
								}
							}
							if rng.Intn(2) == 0 {
								e.After(delay(), "echo", nil)
							}
						})
					default:
						if !waiting[(i+1)%nprocs] {
							waiting[i] = true
							p.Suspend()
						}
					}
					res.timelines[i] = append(res.timelines[i], p.Now())
				}
				waiting[i] = false
			})
		}
		for i := 0; i < 40; i++ {
			e.RunUntil(e.Now() + Time(rng.Intn(2000)))
		}
		e.Run()
		// Release anyone left waiting, so both sides end the same way.
		for j, w := range waiting {
			if w {
				waiting[j] = false
				procs[j].Wake()
				e.Run()
			}
		}
		res.fired, res.digest = e.Fired(), e.Digest()
		return res
	}
	for seed := int64(1); seed <= 20; seed++ {
		want, got := run(seed, true), run(seed, false)
		if got.fired != want.fired || got.digest != want.digest {
			t.Fatalf("seed %d: fired %d digest %#x, parked reference %d %#x",
				seed, got.fired, got.digest, want.fired, want.digest)
		}
		for i := range want.timelines {
			if fmt.Sprint(got.timelines[i]) != fmt.Sprint(want.timelines[i]) {
				t.Fatalf("seed %d: p%d timeline\n%v\nparked reference\n%v",
					seed, i, got.timelines[i], want.timelines[i])
			}
		}
		if want.fired < 100 {
			t.Fatalf("seed %d: degenerate script fired %d events", seed, want.fired)
		}
	}
}

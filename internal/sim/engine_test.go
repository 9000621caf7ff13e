package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestEngineRunsEventsInOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{50, 10, 30, 20, 40} {
		at := at
		e.At(at, "t", func() { got = append(got, at) })
	}
	e.Run()
	want := []Time{10, 20, 30, 40, 50}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
	if e.Now() != 50 {
		t.Errorf("Now() = %v, want 50", e.Now())
	}
}

func TestEngineTiesFireInPostOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, "tie", func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie order: got %v", got)
		}
	}
}

func TestEngineAfterAndNestedScheduling(t *testing.T) {
	e := NewEngine()
	var trace []string
	e.After(10, "a", func() {
		trace = append(trace, "a")
		e.After(5, "b", func() { trace = append(trace, "b") })
		e.At(e.Now()+1, "c", func() { trace = append(trace, "c") })
	})
	e.Run()
	want := []string{"a", "c", "b"}
	for i := range want {
		if i >= len(trace) || trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
	if e.Now() != 15 {
		t.Errorf("Now() = %v, want 15", e.Now())
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.After(10, "x", func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	if !ev.Canceled() {
		t.Error("Canceled() = false after Cancel")
	}
}

func TestEngineCancelFromEarlierEvent(t *testing.T) {
	e := NewEngine()
	fired := false
	late := e.After(20, "late", func() { fired = true })
	e.After(10, "early", func() { late.Cancel() })
	e.Run()
	if fired {
		t.Error("event cancelled mid-run still fired")
	}
}

// deadline is a settable Deadline.
type deadline struct {
	at int64
	ok bool
}

func (d *deadline) NextTimeout() (int64, bool) { return d.at, d.ok }

// TestEngineRearm checks the one-timer discipline: re-arming replaces the
// pending event, a deadline already past fires now, and no deadline leaves
// nothing armed.
func TestEngineRearm(t *testing.T) {
	e := NewEngine()
	var ev *Event
	var fired []Time
	var fn func()
	fn = func() {
		ev = nil
		fired = append(fired, e.Now())
	}
	d := &deadline{at: 50, ok: true}
	e.Rearm(&ev, d, "t", fn)
	d.at = 30
	e.Rearm(&ev, d, "t", fn) // replaces the event at 50
	e.RunFor(40)
	if len(fired) != 1 || fired[0] != 30 || ev != nil {
		t.Fatalf("fired %v, pending %v; want one firing at 30", fired, ev)
	}
	d.at = 10 // already past: clamped to now
	e.Rearm(&ev, d, "t", fn)
	if ev == nil || ev.At() != e.Now() {
		t.Fatalf("past deadline armed at %v, want now %v", ev, e.Now())
	}
	d.ok = false
	e.Rearm(&ev, d, "t", fn)
	if ev != nil || e.Pending() != 0 {
		t.Fatalf("no deadline left %v armed, %d pending", ev, e.Pending())
	}
	e.Run()
	if len(fired) != 1 {
		t.Fatalf("fired %v after disarm", fired)
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.After(10, "advance", func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	e.At(5, "past", func() {})
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.After(-1, "neg", func() {})
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{10, 20, 30} {
		at := at
		e.At(at, "t", func() { fired = append(fired, at) })
	}
	e.RunUntil(20)
	if len(fired) != 2 {
		t.Fatalf("fired %d events by t=20, want 2", len(fired))
	}
	if e.Now() != 20 {
		t.Errorf("Now() = %v, want 20", e.Now())
	}
	e.RunUntil(100)
	if len(fired) != 3 {
		t.Fatalf("fired %d events by t=100, want 3", len(fired))
	}
	if e.Now() != 100 {
		t.Errorf("Now() = %v after RunUntil(100), want 100", e.Now())
	}
}

func TestEngineRunForAdvancesClockWithEmptyQueue(t *testing.T) {
	e := NewEngine()
	e.RunFor(500)
	if e.Now() != 500 {
		t.Errorf("Now() = %v, want 500", e.Now())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	e.After(1, "a", func() { count++; e.Stop() })
	e.After(2, "b", func() { count++ })
	e.Run()
	if count != 1 {
		t.Fatalf("ran %d events before Stop took effect, want 1", count)
	}
	e.Run()
	if count != 2 {
		t.Fatalf("ran %d events total, want 2", count)
	}
}

// Property: for any set of random timestamps, events fire in sorted order
// and the engine clock ends at the max timestamp.
func TestEngineOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		e := NewEngine()
		var fired []Time
		for _, r := range raw {
			at := Time(r)
			e.At(at, "p", func() { fired = append(fired, at) })
		}
		e.Run()
		if len(fired) != len(raw) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		max := fired[len(fired)-1]
		return e.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500us"},
		{2500000, "2.500ms"},
		{3 * Second, "3.000000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestMicrosRoundTrip(t *testing.T) {
	d := Micros(12.5)
	if d != 12500 {
		t.Errorf("Micros(12.5) = %v, want 12500", int64(d))
	}
	if d.Micros() != 12.5 {
		t.Errorf("Micros() = %v, want 12.5", d.Micros())
	}
}

func TestServerFCFS(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "cpu")
	var done []string
	s.Do(10, "a", func() {
		done = append(done, "a")
		if e.Now() != 10 {
			t.Errorf("job a finished at %v, want 10", e.Now())
		}
	})
	s.Do(5, "b", func() {
		done = append(done, "b")
		if e.Now() != 15 {
			t.Errorf("job b finished at %v, want 15 (queued behind a)", e.Now())
		}
	})
	e.Run()
	if len(done) != 2 || done[0] != "a" || done[1] != "b" {
		t.Fatalf("completion order %v, want [a b]", done)
	}
	if s.BusyTotal() != 15 {
		t.Errorf("BusyTotal = %v, want 15", s.BusyTotal())
	}
}

func TestServerIdleGapNotCountedBusy(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "cpu")
	s.Do(10, "a", nil)
	e.Run()
	// Idle from 10 to 90.
	e.At(90, "later", func() { s.Do(10, "b", nil) })
	e.Run()
	if e.Now() != 100 {
		t.Fatalf("Now = %v, want 100", e.Now())
	}
	if got := s.BusyTotal(); got != 20 {
		t.Errorf("BusyTotal = %v, want 20 (the idle gap is not busy)", got)
	}
}

func TestServerNegativeDurationPanics(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "cpu")
	defer func() {
		if recover() == nil {
			t.Error("negative duration did not panic")
		}
	}()
	s.Do(-1, "bad", nil)
}

func TestCPUCycleConversion(t *testing.T) {
	e := NewEngine()
	c := NewCPU(e, "host", 550e6) // 550 MHz P-III, as in the paper's testbed
	d := c.CycleTime(550)
	if d != 1000 { // 550 cycles at 550 MHz = 1 us
		t.Errorf("CycleTime(550) = %v ns, want 1000", int64(d))
	}
	if got := c.Cycles(Microsecond); got != 550 {
		t.Errorf("Cycles(1us) = %v, want 550", got)
	}
}

func TestCPUDoCyclesAccumulates(t *testing.T) {
	e := NewEngine()
	c := NewCPU(e, "nic", 133e6) // LANai 9 clock
	fired := false
	c.DoCycles(133, "stage", func() { fired = true })
	e.Run()
	if !fired {
		t.Fatal("DoCycles completion did not run")
	}
	if e.Now() != 1000 {
		t.Errorf("133 cycles at 133MHz took %v ns, want 1000", int64(e.Now()))
	}
	if got := c.BusyCycles(); got < 132.9 || got > 133.1 {
		t.Errorf("BusyCycles = %v, want ~133", got)
	}
}

func TestCPUBadRatePanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("zero clock rate did not panic")
		}
	}()
	NewCPU(e, "bad", 0)
}

// Stress: random interleaving of server jobs and plain events stays
// consistent: total busy time equals sum of durations, and jobs complete
// in the order their submit events fired — zero durations and same-tick
// submissions included. Jobs (jobs.go) rests on this FIFO property.
func TestServerRandomizedConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		e := NewEngine()
		s := NewServer(e, "cpu")
		var sum Time
		var submitted, order []int
		n := 50
		for i := 0; i < n; i++ {
			i := i
			at := Time(rng.Intn(1000))
			d := Time(rng.Intn(100))
			sum += d
			e.At(at, "submit", func() {
				submitted = append(submitted, i)
				s.Do(d, "job", func() { order = append(order, i) })
			})
		}
		e.Run()
		if s.BusyTotal() != sum {
			t.Fatalf("trial %d: BusyTotal = %v, want %v", trial, s.BusyTotal(), sum)
		}
		if len(order) != n {
			t.Fatalf("trial %d: %d completions, want %d", trial, len(order), n)
		}
		for k := range order {
			if order[k] != submitted[k] {
				t.Fatalf("trial %d: completion %d is job %d, submitted %d-th was job %d",
					trial, k, order[k], k, submitted[k])
			}
		}
	}
}

// Digest hashes each fired event's time and name bytes, in firing order:
// a name built at run time (another address) digests like the literal, a
// cancelled event leaves no trace, and a swapped pair, a shifted time or
// one changed byte all show.
func TestDigest(t *testing.T) {
	digest := func(evs ...any) uint64 {
		e := NewEngine()
		for i := 0; i < len(evs); i += 2 {
			e.At(evs[i].(Time), evs[i+1].(string), nil)
		}
		e.After(5, "cancelled", nil).Cancel()
		e.Run()
		return e.Digest()
	}
	built := string(append([]byte("fabric."), "deliver"...))
	base := digest(Time(1), "tcp_output", Time(1), "fabric.deliver", Time(2), "node1.eth0.rxdma")
	if got := digest(Time(1), "tcp_output", Time(1), built, Time(2), "node1.eth0.rxdma"); got != base {
		t.Errorf("run-time name digests %#x, literal %#x", got, base)
	}
	for _, other := range []uint64{
		digest(Time(1), "fabric.deliver", Time(1), "tcp_output", Time(2), "node1.eth0.rxdma"),
		digest(Time(1), "tcp_output", Time(1), "fabric.deliver", Time(3), "node1.eth0.rxdma"),
		digest(Time(1), "tcp_output", Time(1), "fabric.deliver", Time(2), "node1.eth0.rxdmb"),
		digest(Time(1), "tcp_output", Time(1), "fabric.deliver"),
	} {
		if other == base {
			t.Errorf("a different event sequence digests like the base, %#x", base)
		}
	}
}

// TestEventSize pins Event at 80 bytes (DESIGN §10.1): every scheduled
// callback is one, and the free list keeps each one alive for the run.
func TestEventSize(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n != 80 {
		t.Fatalf("Event is %d bytes, want 80", n)
	}
}

package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
)

// refQueue is the reference the wheel is checked against: a binary heap in
// (at, seq) order, the order the engine promises, with eager cancellation.
type refQueue struct {
	h          refHeap
	now        Time
	seq, fired uint64
}

type refEvent struct {
	at    Time
	seq   uint64
	fn    func()
	index int // heap position, -1 once fired or cancelled
	q     *refQueue
}

func (ev *refEvent) Cancel() {
	if ev.index >= 0 {
		heap.Remove(&ev.q.h, ev.index)
	}
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || h[i].at == h[j].at && h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i]; h[i].index, h[j].index = i, j }
func (h *refHeap) Push(x any)   { ev := x.(*refEvent); ev.index = len(*h); *h = append(*h, ev) }
func (h *refHeap) Pop() any {
	old := *h
	ev := old[len(old)-1]
	ev.index = -1
	*h = old[:len(old)-1]
	return ev
}

func (q *refQueue) After(d Time, _ string, fn func()) canceler {
	q.seq++
	ev := &refEvent{at: q.now + d, seq: q.seq, fn: fn, q: q}
	heap.Push(&q.h, ev)
	return ev
}

func (q *refQueue) step() {
	ev := heap.Pop(&q.h).(*refEvent)
	q.now = ev.at
	q.fired++
	ev.fn()
}

func (q *refQueue) RunFor(d Time) {
	t := q.now + d
	for len(q.h) > 0 && q.h[0].at <= t {
		q.step()
	}
	q.now = max(q.now, t)
}

func (q *refQueue) Run() {
	for len(q.h) > 0 {
		q.step()
	}
}

func (q *refQueue) NextAt() (Time, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].at, true
}

func (q *refQueue) Now() Time     { return q.now }
func (q *refQueue) Fired() uint64 { return q.fired }
func (q *refQueue) Pending() int  { return len(q.h) }

type canceler interface{ Cancel() }

// scriptQueue is what runQueueScript needs from a queue implementation.
type scriptQueue interface {
	After(d Time, name string, fn func()) canceler
	RunFor(d Time)
	Run()
	NextAt() (Time, bool)
	Now() Time
	Fired() uint64
	Pending() int
}

// wheelQueue adapts *Engine to scriptQueue, checking after every RunFor
// that the wheel cursor has not run ahead of the clock.
type wheelQueue struct {
	*Engine
	t *testing.T
}

func (q wheelQueue) After(d Time, name string, fn func()) canceler {
	return q.Engine.After(d, name, fn)
}

func (q wheelQueue) RunFor(d Time) {
	q.Engine.RunFor(d)
	checkCursor(q.t, q.Engine)
}

// checkCursor fails the test unless the wheel cursor is at or behind the
// clock, the invariant that lets every At land in the wheel.
func checkCursor(t *testing.T, e *Engine) {
	t.Helper()
	if e.wheel.cur > uint64(e.now) {
		t.Fatalf("wheel cursor %d ahead of clock %v", e.wheel.cur, e.now)
	}
}

// traceEntry records one fired event for cross-queue comparison.
type traceEntry struct {
	name string
	at   Time
}

// runQueueScript drives an engine through a randomized but fully
// deterministic workload: nested scheduling from callbacks, cancellations,
// timestamp ties, RunUntil clock jumps with scheduling in between,
// far-future timers that land in the wheel's overflow, and NextAt peeks
// (recorded in the trace as "next") from callbacks and between jumps, then
// lone events at each wheel level and in overflow. The
// rng is consulted in callback execution order, so any ordering difference
// between queue implementations snowballs into an obviously different trace.
func runQueueScript(e scriptQueue, seed int64) (trace []traceEntry, fired uint64, pending int) {
	rng := rand.New(rand.NewSource(seed))
	var handles []canceler
	nameN := 0
	peek := func() {
		if at, ok := e.NextAt(); ok {
			trace = append(trace, traceEntry{"next", at})
		}
	}

	randomDelay := func() Time {
		switch r := rng.Intn(100); {
		case r < 10:
			return 0
		case r < 65:
			return Time(rng.Intn(50)) * 10 // quantized: forces ties
		case r < 85:
			return Time(rng.Intn(1_000_000))
		case r < 95:
			// Beyond level 0/1, still inside the wheel horizon.
			return Time(rng.Int63n(1 << 30))
		default:
			// Past the 2^32 ns horizon: overflow territory.
			return 5*Second + Time(rng.Int63n(int64(300*Second)))
		}
	}

	var newEv func(d Time, depth int)
	newEv = func(d Time, depth int) {
		nameN++
		name := fmt.Sprintf("ev%d", nameN)
		slot := len(handles)
		handles = append(handles, nil)
		handles[slot] = e.After(d, name, func() {
			handles[slot] = nil // holder discipline: drop before anything else
			trace = append(trace, traceEntry{name, e.Now()})
			if rng.Intn(8) == 0 {
				peek()
			}
			if depth < 3 {
				for i, k := 0, rng.Intn(3); i < k; i++ {
					newEv(randomDelay(), depth+1)
				}
			}
			if rng.Intn(4) == 0 {
				if h := handles[rng.Intn(len(handles))]; h != nil {
					h.Cancel()
					// The slot is found and nilled below.
					for i, x := range handles {
						if x == h {
							handles[i] = nil
						}
					}
				}
			}
		})
	}

	for i := 0; i < 40; i++ {
		newEv(randomDelay(), 0)
	}
	// Clock jumps interleaved with scheduling, so events land both before
	// and after whatever the engine has already peeked at.
	for i := 0; i < 30; i++ {
		e.RunFor(Time(rng.Int63n(200_000)))
		peek()
		for j, k := 0, rng.Intn(4); j < k; j++ {
			newEv(randomDelay(), 0)
		}
		peek()
	}
	// Overflow re-arms: a timer moved past the horizon again and again, as
	// a backed-off retransmit is, beside ties at its deadline and random
	// cancels, so that the cancelled overflow events outnumber the live
	// ones and the slice is compacted while ties wait in it.
	at := e.Now() + 10*Second + Time(rng.Int63n(int64(Second)))
	var rearm canceler
	for i := 0; i < 60; i++ {
		if rearm != nil {
			rearm.Cancel()
		}
		nameN++
		name := fmt.Sprintf("rearm%d", nameN)
		rearm = e.After(at+Time(rng.Intn(3))-e.Now(), name, func() {
			trace = append(trace, traceEntry{name, e.Now()})
		})
		switch rng.Intn(6) {
		case 0:
			newEv(at-e.Now(), 3)
		case 1:
			if h := handles[rng.Intn(len(handles))]; h != nil {
				h.Cancel()
				for j, x := range handles {
					if x == h {
						handles[j] = nil
					}
				}
			}
		case 2:
			e.RunFor(Time(rng.Int63n(1_000_000)))
			peek()
		}
	}
	// Lone events: on a drained queue, one event alone in a level-1, -2
	// or -3 window, or in overflow, which the wheel fires from where it
	// sits. A horizon stops inside its window but short of it, leaving it
	// in place; then an earlier event and a tie are scheduled around it,
	// or it is cancelled. Its callback peeks right after it fires.
	for level := 1; level <= 4; level++ {
		e.Run()
		span := Time(1) << (8 * level)
		d := span + Time(rng.Int63n(int64(span)))
		at := e.Now() + d
		nameN++
		name := fmt.Sprintf("lone%d", nameN)
		h := e.After(d, name, func() {
			trace = append(trace, traceEntry{name, e.Now()})
			peek()
			newEv(randomDelay(), 2)
		})
		peek()
		e.RunFor(d - 1 - Time(rng.Int63n(min(int64(d)-1, 300))))
		peek()
		if rng.Intn(3) == 0 {
			h.Cancel()
		} else {
			newEv(Time(rng.Int63n(int64(at-e.Now()))), 3)
			newEv(at-e.Now(), 3)
		}
		peek()
		e.RunFor(at - e.Now())
		peek()
	}
	e.Run()
	return trace, e.Fired(), e.Pending()
}

// TestWheelMatchesLegacyHeap is the queue-equivalence property: the timer
// wheel must produce bit-for-bit the event order of a plain (at, seq) heap,
// the engine's original queue, on randomized workloads.
func TestWheelMatchesLegacyHeap(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		wantTrace, wantFired, wantPending := runQueueScript(&refQueue{}, seed)
		gotTrace, gotFired, gotPending := runQueueScript(wheelQueue{NewEngine(), t}, seed)

		if gotFired != wantFired || gotPending != wantPending {
			t.Fatalf("seed %d: fired/pending = %d/%d (wheel) vs %d/%d (heap)",
				seed, gotFired, gotPending, wantFired, wantPending)
		}
		if len(gotTrace) != len(wantTrace) {
			t.Fatalf("seed %d: trace length %d (wheel) vs %d (heap)", seed, len(gotTrace), len(wantTrace))
		}
		for i := range wantTrace {
			if gotTrace[i] != wantTrace[i] {
				t.Fatalf("seed %d: trace diverges at %d: %v (wheel) vs %v (heap)",
					seed, i, gotTrace[i], wantTrace[i])
			}
		}
		if wantFired == 0 {
			t.Fatalf("seed %d: degenerate script fired nothing", seed)
		}
	}
}

// TestCancelledTimersDoNotGrowQueue is the cancelled-event-leak regression:
// schedule and immediately cancel 1M timers (the tcp rexmt/delack churn
// pattern) and require that the queue does not accumulate them.
func TestCancelledTimersDoNotGrowQueue(t *testing.T) {
	e := NewEngine()
	anchor := false
	e.After(2*Second, "anchor", func() { anchor = true })
	const total = 1 << 20
	for i := 0; i < total; i++ {
		ev := e.After(Time(1000+i%777), "churn", func() { t.Error("cancelled timer fired") })
		ev.Cancel()
		if !ev.Canceled() {
			t.Fatal("Canceled() false after Cancel")
		}
		if p := e.Pending(); p != 1 {
			t.Fatalf("Pending = %d after %d cancels, want 1", p, i+1)
		}
	}
	if n := residentEvents(t, &e.wheel); n != 1 {
		t.Fatalf("wheel holds %d events after the cancels, want 1 (the anchor)", n)
	}
	e.Run()
	if e.Fired() != 1 || !anchor {
		t.Fatalf("fired %d events, want 1 (anchor ran: %v)", e.Fired(), anchor)
	}
}

// TestOverflowRearmStaysCompact is the overflow-leak regression: a timer
// re-armed past the wheel's horizon, beside a few live far timers, used to
// leave every cancelled copy in the overflow slice until the cursor reached
// the next 2^32 ns window, and to take a fresh Event for every re-arm.
func TestOverflowRearmStaysCompact(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 3; i++ {
		e.At(60*Second, "far", func() {})
	}
	var timer *Event
	fn := func() { timer = nil }
	at := 10 * Second
	rearm := func() {
		Disarm(&timer)
		at++
		timer = e.At(at, "rexmt", fn)
	}
	for i := 0; i < 100_000; i++ {
		rearm()
		live := 0
		for _, ev := range e.wheel.overflow {
			if ev.state != evCanceled {
				live++
			}
		}
		if n := len(e.wheel.overflow); n > 2*live+1 || e.wheel.dead != n-live {
			t.Fatalf("re-arm %d: overflow holds %d events for %d live, %d counted dead", i, n, live, e.wheel.dead)
		}
	}
	if avg := testing.AllocsPerRun(1000, rearm); avg != 0 {
		t.Errorf("re-arm past the horizon allocates %.2f objects/op, want 0", avg)
	}
	fired := 0
	e.At(at+1, "check", func() { fired = int(e.Fired()) })
	e.Run()
	if fired != 2 || e.Fired() != 5 || timer != nil {
		t.Fatalf("fired %d events, %d by the check: want the last re-arm, the check, then 3 far ones", e.Fired(), fired)
	}
}

// TestWheelOverflowOrdering exercises the >2^32ns overflow path directly:
// TIME_WAIT-scale timers across several top-level windows, with ties and a
// cancellation, must fire in (at, seq) order.
func TestWheelOverflowOrdering(t *testing.T) {
	e := NewEngine()
	var got []string
	add := func(name string, at Time) *Event {
		return e.At(at, name, func() { got = append(got, name) })
	}
	add("near", 100)
	add("tw1", 60*Second)
	add("tw2", 60*Second) // tie: scheduling order breaks it
	add("far", 300*Second)
	victim := add("victim", 120*Second)
	add("mid", 5*Second)
	victim.Cancel()
	e.Run()
	want := []string{"near", "mid", "tw1", "tw2", "far"}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
	if e.Now() != 300*Second {
		t.Fatalf("Now = %v, want 300s", e.Now())
	}
}

// residentEvents counts the events linked into the wheel's slots plus those
// parked in overflow, failing the test if an occupancy bit disagrees with
// its slot's list.
func residentEvents(t *testing.T, w *wheel) int {
	t.Helper()
	n := len(w.overflow)
	for level := range w.slots {
		for slot := range w.slots[level] {
			head := w.slots[level][slot].head
			if bit := w.occupied[level][slot>>6]&(1<<(slot&63)) != 0; bit != (head != nil) {
				t.Fatalf("level %d slot %d: occupancy bit %v, list empty %v", level, slot, bit, head == nil)
			}
			for ev := head; ev != nil; ev = ev.next {
				n++
			}
		}
	}
	return n
}

// TestScheduleBehindParkedEvent is the wheel-cursor regression: a
// RunUntil horizon that stops short of the next event must leave the cursor
// at or behind the clock, so a later schedule before that event still fires
// first — with the parked event live, and after it was cancelled. The
// parked event sits in the cursor's level-0 window (100) or beyond it (1000).
func TestScheduleBehindParkedEvent(t *testing.T) {
	for _, late := range []Time{100, 1000} {
		horizon, early := late/2, late*6/10
		e := NewEngine()
		var got []string
		e.At(late, "late", func() { got = append(got, "late") })
		e.RunUntil(horizon)
		checkCursor(t, e)
		e.At(early, "early", func() { got = append(got, "early") })
		e.At(late, "tie", func() { got = append(got, "tie") })
		e.Run()
		if len(got) != 3 || got[0] != "early" || got[1] != "late" || got[2] != "tie" {
			t.Fatalf("late=%v: fired %v, want [early late tie]", late, got)
		}

		e = NewEngine()
		got = got[:0]
		parked := e.At(late, "parked", func() { got = append(got, "parked") })
		e.RunUntil(horizon)
		checkCursor(t, e)
		parked.Cancel()
		e.At(early, "early", func() { got = append(got, "early") })
		e.RunUntil(late - 1)
		checkCursor(t, e)
		if len(got) != 1 || got[0] != "early" {
			t.Fatalf("late=%v: fired %v by %v, want [early]", late, got, late-1)
		}
		e.Run()
		if len(got) != 1 || e.Pending() != 0 {
			t.Fatalf("late=%v: fired %v with %d pending after Run, want [early] and 0", late, got, e.Pending())
		}
	}
}

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

func (q *refQueue) Now() Time     { return q.now }
func (q *refQueue) Fired() uint64 { return q.fired }
func (q *refQueue) Pending() int  { return len(q.h) }

type canceler interface{ Cancel() }

// scriptQueue is what runQueueScript needs from a queue implementation.
type scriptQueue interface {
	After(d Time, name string, fn func()) canceler
	RunFor(d Time)
	Run()
	Now() Time
	Fired() uint64
	Pending() int
}

// wheelQueue adapts *Engine to scriptQueue.
type wheelQueue struct{ *Engine }

func (q wheelQueue) After(d Time, name string, fn func()) canceler {
	return q.Engine.After(d, name, fn)
}

// traceEntry records one fired event for cross-queue comparison.
type traceEntry struct {
	name string
	at   Time
}

// runQueueScript drives an engine through a randomized but fully
// deterministic workload: nested scheduling from callbacks, cancellations,
// timestamp ties, RunUntil clock jumps with scheduling in between, and
// far-future timers that land in the wheel's overflow. The rng is consulted
// in callback execution order, so any ordering difference between queue
// implementations snowballs into an obviously different trace.
func runQueueScript(e scriptQueue, seed int64) (trace []traceEntry, fired uint64, pending int) {
	rng := rand.New(rand.NewSource(seed))
	var handles []canceler
	nameN := 0

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
		for j, k := 0, rng.Intn(4); j < k; j++ {
			newEv(randomDelay(), 0)
		}
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
		gotTrace, gotFired, gotPending := runQueueScript(wheelQueue{NewEngine()}, seed)

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
	if n := len(e.due); n != e.dueHead {
		t.Fatalf("due buffer holds %d entries after cancels", n-e.dueHead)
	}
	e.Run()
	if e.Fired() != 1 || !anchor {
		t.Fatalf("fired %d events, want 1 (anchor ran: %v)", e.Fired(), anchor)
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

// TestDueFrontInsert pins the peek-then-schedule-earlier corner: RunUntil
// materializes the next slot into the due buffer; a subsequent schedule with
// an earlier timestamp must still fire first.
func TestDueFrontInsert(t *testing.T) {
	e := NewEngine()
	var got []string
	e.At(1000, "late", func() { got = append(got, "late") })
	e.RunUntil(500) // peeks (and buffers) the event at 1000
	e.At(600, "early", func() { got = append(got, "early") })
	e.At(1000, "tie", func() { got = append(got, "tie") })
	e.Run()
	if len(got) != 3 || got[0] != "early" || got[1] != "late" || got[2] != "tie" {
		t.Fatalf("fired %v, want [early late tie]", got)
	}
}

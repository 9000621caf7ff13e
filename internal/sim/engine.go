// Package sim provides a deterministic discrete-event simulation engine.
//
// All QPIP hardware models (NIC processors, DMA engines, links, host CPUs)
// are built on this engine. Real protocol code runs inside event callbacks;
// only time is simulated. The engine is single-threaded and fully
// deterministic: events fire in non-decreasing timestamp order, with ties
// broken by scheduling order.
//
// The queue is a four-level hierarchical timer wheel (wheel.go) with a
// per-engine Event free list, so steady-state scheduling, cancellation, and
// firing allocate nothing. Events fire in (at, seq) order, a total order;
// wheel_test.go checks the wheel against a plain (at, seq) priority queue.
package sim

import "fmt"

// Time is a simulated timestamp in nanoseconds since the start of the run.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

// Micros reports t as a floating-point number of microseconds.
func (t Time) Micros() float64 { return float64(t) / 1e3 }

// Millis reports t as a floating-point number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / 1e6 }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.6fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Millis())
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Micros converts a floating-point number of microseconds to a Time.
func Micros(us float64) Time { return Time(us * 1e3) }

// Event lifecycle states.
const (
	evFree     uint8 = iota // on the engine free list (or never scheduled)
	evWheel                 // linked into a timer-wheel slot
	evDue                   // in the due buffer, about to fire
	evOverflow              // parked beyond the wheel horizon
	evFired                 // callback ran
	evCanceled              // cancelled before firing
)

// Event is a scheduled callback. It may be cancelled before it fires.
//
// Events are pooled per engine: once an event has fired or been cancelled,
// the engine may hand the same *Event out again from a later At/After call.
// Holders that keep an event across callbacks must therefore drop their
// reference when it fires (set it to nil first thing in the callback) and
// immediately after calling Cancel — the discipline every timer holder in
// this repo already follows. Calling Cancel on an event that already fired
// is a harmless no-op.
type Event struct {
	at    Time
	seq   uint64
	fn    func()
	name  string
	eng   *Engine
	state uint8

	// srv, when non-nil, is the Server whose job this event completes; the
	// engine decrements the server's queue depth before running fn. Keeping
	// the pointer in the event (rather than wrapping fn) makes Server.Do
	// allocation-free.
	srv *Server

	// Timer-wheel intrusive list links. next doubles as the free-list link.
	next, prev *Event
	level      int8
	slot       uint8
}

// At reports the time the event is scheduled to fire.
func (ev *Event) At() Time { return ev.at }

// Canceled reports whether Cancel was called before the event fired.
func (ev *Event) Canceled() bool { return ev.state == evCanceled }

// Cancel prevents the event's callback from running and removes it from the
// queue. Cancelling an event that already fired or was already cancelled is
// a no-op.
func (ev *Event) Cancel() {
	switch ev.state {
	case evWheel:
		ev.state = evCanceled
		ev.eng.live--
		ev.eng.wheel.unlink(ev)
		ev.eng.recycle(ev)
	case evDue, evOverflow:
		// Sliced storage; reaped (and recycled) when its batch is visited.
		ev.state = evCanceled
		ev.eng.live--
	}
}

// Engine is a discrete-event simulation kernel.
//
// The zero value is not usable; create engines with NewEngine.
type Engine struct {
	now     Time
	lastAt  Time // timestamp of the most recently fired event
	seq     uint64
	fired   uint64
	live    int // scheduled, not yet fired or cancelled
	stopped bool

	// The wheel proper plus the "due" buffer — the already drained,
	// (at, seq)-ordered run of events about to fire. dueHead indexes the
	// next event to pop so draining never shifts the slice.
	wheel   wheel
	due     []*Event
	dueHead int
	free    *Event // event free list, linked through next
}

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired reports the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports the number of live events: scheduled but not yet fired or
// cancelled.
func (e *Engine) Pending() int { return e.live }

// LastEventAt reports the timestamp of the most recently executed event
// (zero if none has fired). Unlike Now, it is not advanced by RunUntil's
// clock forcing, so it identifies "when the simulation last did work" — the
// quantity that is comparable between a sequential run (where Now stops at
// the final event) and an epoch-barrier parallel run (where RunUntil pushes
// every shard clock to the barrier horizon).
func (e *Engine) LastEventAt() Time { return e.lastAt }

// NextAt reports the timestamp of the next live event without firing it.
// It reports false when the queue is empty. Used by the conservative
// parallel runner to compute the epoch horizon.
func (e *Engine) NextAt() (Time, bool) {
	ev, ok := e.peek()
	if !ok {
		return 0, false
	}
	return ev.at, true
}

// alloc hands out an event, reusing the free list.
//
//qpip:hotpath
func (e *Engine) alloc(t Time, name string, fn func()) *Event {
	ev := e.free
	if ev != nil {
		e.free = ev.next
		ev.next = nil
	} else {
		ev = &Event{eng: e}
	}
	e.seq++
	ev.at, ev.seq, ev.fn, ev.name = t, e.seq, fn, name
	return ev
}

// recycle returns a fired or cancelled event to the free list. The state
// field is deliberately left as evFired/evCanceled so a stale holder's
// Canceled() read stays truthful until the event is handed out again.
//
//qpip:hotpath
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	ev.name = ""
	ev.srv = nil
	ev.prev = nil
	ev.next = e.free
	e.free = ev
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it always indicates a model bug.
//
//qpip:hotpath
func (e *Engine) At(t Time, name string, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: event %q scheduled at %v, before now %v", name, t, e.now))
	}
	ev := e.alloc(t, name, fn)
	e.live++
	// An active due buffer covers timestamps up to its last entry; events
	// landing inside that span must join it (sorted; equal timestamps go
	// after existing ones since the new seq is highest). Everything later
	// goes to the wheel, which only holds times beyond the due horizon.
	//
	// The wheel cursor can sit ahead of the clock with an empty due buffer:
	// peek pulls the next event (advancing the cursor to it) and RunUntil
	// then breaks with the clock forced to an earlier horizon; if that
	// parked event is cancelled and reaped, nothing due remains. The wheel
	// never rescans slots behind its cursor, so any timestamp at or below
	// the cursor must join the due buffer too.
	n := len(e.due)
	inDue := n > e.dueHead && t <= e.due[n-1].at
	if !inDue && uint64(t) < e.wheel.cur {
		inDue = true
		if e.dueHead == n {
			e.due = e.due[:0]
			e.dueHead = 0
			n = 0
		}
	}
	if inDue {
		ev.state = evDue
		i := len(e.due)
		for i > e.dueHead && e.due[i-1].at > t {
			i--
		}
		e.due = append(e.due, nil)
		copy(e.due[i+1:], e.due[i:])
		e.due[i] = ev
		return ev
	}
	e.wheel.insert(ev)
	return ev
}

// After schedules fn to run d nanoseconds from now. Negative d panics.
//
//qpip:hotpath
func (e *Engine) After(d Time, name string, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: event %q scheduled after negative delay %v", name, d))
	}
	return e.At(e.now+d, name, fn)
}

// Stop makes the current Run/RunUntil/RunFor call return after the
// currently-executing event completes. Pending events stay queued.
func (e *Engine) Stop() { e.stopped = true }

// peek exposes the next live event without firing it, refilling the due
// buffer from the wheel as needed. It reports false when the queue is empty.
//
//qpip:hotpath
func (e *Engine) peek() (*Event, bool) {
	for {
		for e.dueHead < len(e.due) {
			ev := e.due[e.dueHead]
			if ev.state != evCanceled {
				return ev, true
			}
			e.due[e.dueHead] = nil
			e.dueHead++
			e.recycle(ev)
		}
		e.due = e.due[:0]
		e.dueHead = 0
		if !e.wheel.pullNext(e) {
			return nil, false
		}
	}
}

// step pops and runs the next event. It reports false when the queue is empty.
//
//qpip:hotpath
func (e *Engine) step() bool {
	ev, ok := e.peek()
	if !ok {
		return false
	}
	e.due[e.dueHead] = nil
	e.dueHead++
	ev.state = evFired
	e.now = ev.at
	e.lastAt = ev.at
	e.fired++
	e.live--
	if ev.srv != nil {
		ev.srv.inQueue--
	}
	if ev.fn != nil {
		ev.fn()
	}
	// Recycled only after fn returns: any holder has nilled its reference by
	// then (callbacks clear their own handle first), so reuse is safe.
	e.recycle(ev)
	return true
}

// Run executes events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.step() {
	}
}

// RunUntil executes events with timestamps <= t, then sets the clock to t
// (if it is not already past t).
func (e *Engine) RunUntil(t Time) {
	e.stopped = false
	for !e.stopped {
		next, ok := e.peek()
		if !ok || next.at > t {
			break
		}
		e.step()
	}
	if e.now < t {
		e.now = t
	}
}

// RunFor executes events for d nanoseconds of simulated time from now.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }

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
// firing allocate nothing. Events fire in time order, and events due at
// the same time in the order they were scheduled: a total order, which
// wheel_test.go checks against a plain priority queue.
// The wheel's cursor never runs ahead of the clock — RunUntil advances it
// only up to its horizon — so every schedule is a wheel insert and every
// cancel inside the wheel's 4.3 s horizon an O(1) unlink, however the run is
// sliced into RunUntil calls.
package sim

import (
	"fmt"
	"math/bits"
)

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
	at   Time
	fn   func()
	name string
	eng  *Engine

	// Timer-wheel intrusive list links. next doubles as the free-list link.
	next, prev *Event

	// wake marks a process's own wake-up (Proc.await, the spawn event):
	// the event whose only effect is to resume that process.
	wake *Proc

	state uint8
	level int8
	slot  uint8
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
	case evOverflow:
		// Sliced storage: marked here, reaped (and recycled) in bulk.
		ev.state = evCanceled
		ev.eng.live--
		ev.eng.wheel.cancelOverflow(ev.eng)
	}
}

// Disarm cancels the event *ev holds, if any, and clears the holder.
func Disarm(ev **Event) {
	if *ev != nil {
		(*ev).Cancel()
		*ev = nil
	}
}

// Deadline is a source of timeouts, such as a TCP connection's timers: its
// earliest pending deadline in nanoseconds, ok false when none is pending.
type Deadline interface {
	NextTimeout() (deadline int64, ok bool)
}

// Rearm moves the one event *ev to d's earliest deadline, clamped to now,
// or cancels it when d has none. fn must clear *ev when it fires, because
// a fired event is recycled.
//
//qpip:hotpath
func (e *Engine) Rearm(ev **Event, d Deadline, name string, fn func()) {
	Disarm(ev)
	if deadline, ok := d.NextTimeout(); ok {
		*ev = e.At(max(Time(deadline), e.now), name, fn)
	}
}

// Engine is a discrete-event simulation kernel.
//
// The zero value is not usable; create engines with NewEngine.
type Engine struct {
	now     Time
	lastAt  Time // timestamp of the most recently fired event
	fired   uint64
	live    int // scheduled, not yet fired or cancelled
	stopped bool
	digest  uint64 // running hash over fired (at, name); see Digest

	// self is the process running inside its own wake-up, nil otherwise;
	// limit is the bound of the running Run/RunUntil/step. Proc.await
	// reads both to fire the next wake-up in place.
	self  *Proc
	limit uint64

	wheel wheel
	free  *Event // event free list, linked through next
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

// Digest reports a running 64-bit hash over every fired event's time and
// name, in firing order. Two runs that fire the same event sequence report
// the same digest, in every build: the name's bytes are hashed, never a
// pointer. Tests pin it to prove a refactor event-identical.
func (e *Engine) Digest() uint64 { return e.digest }

// digestEvent folds one fired event into h: its time and name length,
// then the name eight bytes at a time. The last one to eight bytes are
// read as overlapping loads, which with the length pin every byte.
//
//qpip:hotpath
func digestEvent(h uint64, at Time, name string) uint64 {
	h = digestMix(h, uint64(at)^uint64(len(name))<<56)
	for ; len(name) > 8; name = name[8:] {
		h = digestMix(h, le64(name))
	}
	var w uint64
	switch n := len(name); {
	case n == 8:
		w = le64(name)
	case n >= 4:
		w = le32(name) | le32(name[n-4:])<<32
	case n > 0:
		w = uint64(name[0]) | uint64(name[n/2])<<8 | uint64(name[n-1])<<16
	}
	return digestMix(h, w)
}

// le64 and le32 read the first eight and four bytes of s little-endian.
func le64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

func le32(s string) uint64 {
	_ = s[3]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24
}

// digestMix is an FNV-style xor-multiply step with a rotate, so high input
// bits reach the low ones.
func digestMix(h, w uint64) uint64 {
	return bits.RotateLeft64((h^w)*0x100000001b3, 29)
}

// NextAt reports the timestamp of the next live event without firing it.
// It reports false when the queue is empty, and it never moves the wheel
// cursor. Used by the conservative parallel runner to compute the epoch
// horizon.
func (e *Engine) NextAt() (Time, bool) {
	t, ok := e.wheel.next()
	return Time(t), ok
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
	ev.at, ev.fn, ev.name = t, fn, name
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
	ev.wake = nil
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
	// t >= now >= cursor: the wheel takes every schedule.
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

// step fires the next event. It reports false when the queue is empty.
func (e *Engine) step() bool { return e.stepUntil(^uint64(0)) }

// stepUntil fires the next event if it is due at or before limit, and
// reports whether it did. The cursor stops at or before limit either way.
//
//qpip:hotpath
func (e *Engine) stepUntil(limit uint64) bool {
	ev := e.wheel.advance(e, limit)
	if ev == nil {
		return false
	}
	e.wheel.unlink(ev)
	ev.state = evFired
	e.live--
	e.fire(ev.at, ev.name)
	e.self, e.limit = ev.wake, limit
	if ev.fn != nil {
		ev.fn()
	}
	e.self = nil
	// Recycled only after fn returns: any holder has nilled its reference by
	// then (callbacks clear their own handle first), so reuse is safe.
	e.recycle(ev)
	return true
}

// fire is the engine's side of firing an event due at at: the clock, the
// fired count and the digest. stepUntil and Proc.await's in-place wake-up
// share it, so both fire the same event the same way.
//
//qpip:hotpath
func (e *Engine) fire(at Time, name string) {
	e.now, e.lastAt = at, at
	e.fired++
	e.digest = digestEvent(e.digest, at, name)
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
	// No event is scheduled before time zero, so a negative t fires nothing.
	for !e.stopped && t >= 0 && e.stepUntil(uint64(t)) {
	}
	if e.now < t {
		e.now = t
	}
}

// RunFor executes events for d nanoseconds of simulated time from now.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }

//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// Proc is a simulated process: application code written in blocking style
// (post a work request, wait for a completion) that interleaves
// deterministically with the event engine. Exactly one side — the engine
// or one process — runs at a time; control transfers are synchronous
// handshakes, so simulations stay reproducible.
//
// Each process runs on a runtime coroutine (iter.Pull): Wake switches
// straight into the process and a park switches straight back, with no
// pass through the Go scheduler's run queue (DESIGN §10.1); a Sleep or
// Use whose wake-up is the engine's next event anyway skips both (await).
// The runtime resumes the coroutine's stack only through that hand-off, so
// the engine stays logically single-threaded and this package has no go
// statement.
// A panic inside the process surfaces, with its value unchanged, from the
// Wake (or spawn event) that resumed it, i.e. from Engine.Run; its
// traceback then shows the engine's frames, not the process's.
//
// iter.Pull is go1.23; the build line lets a go1.22 module use it.
type Proc struct {
	eng  *Engine
	name string
	dead bool

	// yield parks the coroutine (returning control to whoever resumed
	// it); resume switches into it until it parks again or finishes.
	yield  func(struct{}) bool
	resume func() (struct{}, bool)

	// Precomputed event names, so Sleep/Use in a poll loop don't
	// concatenate strings per call.
	sleepName, useName string

	// wakeFn is the one Wake closure, bound at spawn, so Sleep and Use
	// don't allocate a fresh closure per park.
	wakeFn func()
}

// Spawn starts fn as a simulated process at the current time. fn runs until
// it parks (Suspend, Sleep, Use) or returns; the engine then proceeds.
func (e *Engine) Spawn(name string, fn func(*Proc)) *Proc {
	p := &Proc{
		eng:       e,
		name:      name,
		sleepName: name + ".sleep",
		useName:   name + ".use",
	}
	p.wakeFn = func() { p.Wake() }
	e.After(0, "spawn:"+name, func() {
		p.resume, _ = iter.Pull(func(yield func(struct{}) bool) {
			// Deferred so a panicking fn also leaves the process dead: a
			// later Wake then reports it instead of resuming nothing.
			defer func() { p.dead = true }()
			p.yield = yield
			fn(p)
		})
		p.resume()
	}).wake = p
	return p
}

// Name reports the process name.
func (p *Proc) Name() string { return p.name }

// Done reports whether the process function has returned.
func (p *Proc) Done() bool { return p.dead }

// park transfers control back to the engine until Wake.
func (p *Proc) park() { p.yield(struct{}{}) }

// Wake resumes a parked process and blocks (the engine) until it parks
// again or finishes. It must be called from engine context (an event
// callback), never from another process directly.
func (p *Proc) Wake() {
	if p.dead {
		panic(fmt.Sprintf("sim: Wake on finished process %q", p.name))
	}
	p.resume()
}

// WakeFn returns Wake as a func value bound once at spawn, so a waker can
// hand it to Server.Do or Engine.After without allocating a closure per
// wakeup. The same calling rule as Wake applies.
func (p *Proc) WakeFn() func() { return p.wakeFn }

// Suspend parks until some event calls Wake.
func (p *Proc) Suspend() { p.park() }

// Sleep parks for d of simulated time.
func (p *Proc) Sleep(d Time) { p.await(p.eng.now+d, p.sleepName) }

// Use occupies a server (a CPU, typically) for d and parks until the work
// completes — modeling synchronous computation by this process.
func (p *Proc) Use(s *Server, d Time) { p.await(s.reserve(d, p.useName), p.useName) }

// await parks until p's own wake-up, an event named name due at at. When
// that wake-up is the very event the running loop would fire next, it fires
// in place instead, and p simply continues: the engine does the firing's
// bookkeeping and skips the park and the resume. That holds when p runs
// inside its previous own wake-up (so nothing runs after p would park), the
// engine is not stopped, and the wake-up is due by the loop's limit and
// before every queued event. A wake issued from any other callback, which
// may have more to do after Wake returns, always parks (DESIGN §10.1).
//
//qpip:hotpath
func (p *Proc) await(at Time, name string) {
	e := p.eng
	if e.self == p && !e.stopped && at >= e.now && e.wheel.claim(uint64(at), e.limit) {
		e.seq++
		e.fire(at, name)
		return
	}
	e.At(at, name, p.wakeFn).wake = p
	p.park()
}

// UseCycles occupies a CPU for the given cycle count.
func (p *Proc) UseCycles(c *CPU, cycles float64) {
	p.Use(c.Server, c.CycleTime(cycles))
}

// Now reports the engine clock.
func (p *Proc) Now() Time { return p.eng.Now() }

// Engine returns the owning engine.
func (p *Proc) Engine() *Engine { return p.eng }

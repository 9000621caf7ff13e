package sim

import "fmt"

// Proc is a simulated process: application code written in blocking style
// (post a work request, wait for a completion) that interleaves
// deterministically with the event engine. Exactly one goroutine — the
// engine's or one process's — runs at a time; control transfers are
// synchronous handshakes, so simulations stay reproducible.
//
// A single unbuffered baton channel carries both directions of the
// handshake: the side yielding control sends, the side waiting to run
// receives, in strict alternation. One channel halves the channel traffic
// of the old resume/parked pair on the hot park/wake path.
type Proc struct {
	eng   *Engine
	name  string
	baton chan struct{}
	dead  bool

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
		baton:     make(chan struct{}),
		sleepName: name + ".sleep",
		useName:   name + ".use",
	}
	p.wakeFn = func() { p.Wake() }
	e.After(0, "spawn:"+name, func() {
		// The goroutine IS the coroutine mechanism: exactly one runs at a
		// time, handing off through the baton channel, so the engine stays
		// logically single-threaded (DESIGN §4).
		//lint:qpip-allow nogoroutine coroutine carrier with strict baton handoff
		go func() {
			fn(p)
			p.dead = true
			p.baton <- struct{}{}
		}()
		<-p.baton
	})
	return p
}

// Name reports the process name.
func (p *Proc) Name() string { return p.name }

// Done reports whether the process function has returned.
func (p *Proc) Done() bool { return p.dead }

// park transfers control back to the engine until Wake.
func (p *Proc) park() {
	p.baton <- struct{}{}
	<-p.baton
}

// Wake resumes a parked process and blocks (the engine) until it parks
// again or finishes. It must be called from engine context (an event
// callback), never from another process directly.
func (p *Proc) Wake() {
	if p.dead {
		panic(fmt.Sprintf("sim: Wake on finished process %q", p.name))
	}
	p.baton <- struct{}{}
	<-p.baton
}

// WakeFn returns Wake as a func value bound once at spawn, so a waker can
// hand it to Server.Do or Engine.After without allocating a closure per
// wakeup. The same calling rule as Wake applies.
func (p *Proc) WakeFn() func() { return p.wakeFn }

// Suspend parks until some event calls Wake.
func (p *Proc) Suspend() { p.park() }

// Sleep parks for d of simulated time.
func (p *Proc) Sleep(d Time) {
	p.eng.After(d, p.sleepName, p.wakeFn)
	p.park()
}

// Use occupies a server (a CPU, typically) for d and parks until the work
// completes — modeling synchronous computation by this process.
func (p *Proc) Use(s *Server, d Time) {
	s.Do(d, p.useName, p.wakeFn)
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

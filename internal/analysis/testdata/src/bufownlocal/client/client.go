// Package client exercises bufown's single-function cases against the
// stand-in wire package: balance within one body and use after release.
package client

import "bufownlocal/internal/wire"

// send takes ownership: it gives the packet back to the pool.
func send(p *wire.Packet) { p.Release() }

// leak acquires a packet and neither releases nor hands it off.
func leak() int {
	p := wire.Get() // want `\*wire.Packet acquired from wire.Get is never released or handed off.*wire.Len borrows it`
	return p.Len()
}

// balanced releases on the same path: legal.
func balanced() int {
	p := wire.Get()
	n := p.Len()
	p.Release()
	return n
}

// handoff passes ownership to a callee: legal.
func handoff() {
	p := wire.Get()
	send(p)
}

// deferred releases at function exit: legal, and the use between the
// defer and the return is fine.
func deferred() int {
	p := wire.Get()
	defer p.Release()
	return p.Len()
}

// useAfterRelease touches the packet after giving it back to the pool.
func useAfterRelease() int {
	p := wire.Get()
	p.Release()
	return p.Len() // want `use of pooled "p" after p.Release\(\)`
}

// reacquired rebinds the name after the release: legal.
func reacquired() int {
	p := wire.Get()
	p.Release()
	p = wire.Get()
	defer p.Release()
	return p.Len()
}

// inLiteral acquires inside a function literal and forgets the packet:
// the literal's own body is not a capture that takes ownership.
func inLiteral() func() int {
	return func() int {
		p := wire.Get() // want `\*wire.Packet acquired from wire.Get is never released or handed off`
		return p.Len()
	}
}

// peeked would be flagged as a leak — the packet is neither released nor
// handed off — but the allow documents why this diagnostic helper is
// exempt.
func peeked() int {
	//lint:qpip-allow bufown probe packet is deliberately abandoned in this diagnostic helper
	p := wire.Get()
	return p.Len()
}

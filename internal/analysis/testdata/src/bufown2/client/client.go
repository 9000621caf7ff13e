// Package client exercises bufown's interprocedural ownership tracking
// against the pooled stub in bufown2/internal/wire.
package client

import (
	"bufown2/internal/pool"
	"bufown2/internal/wire"
)

// nic models a struct that takes ownership by storing.
type nic struct {
	inflight []*wire.Packet
	slot     *wire.Packet
	deferred func()
}

// consumeIt releases its argument: callers hand off ownership here.
func consumeIt(p *wire.Packet) {
	p.Release()
}

// peek only reads: its summary says "does not take ownership".
func peek(p *wire.Packet) int {
	return p.Len
}

// fresh returns an owned packet: the obligation propagates to callers.
func fresh() *wire.Packet {
	return wire.Get()
}

// releaser mirrors the fabric's releasable interface; drop consumes its
// argument through dynamic dispatch (CHA resolves r.Release to the
// Packet method).
type releaser interface{ Release() }

func drop(r releaser) {
	r.Release()
}

// leak acquires and forgets: the classic finding, with the borrowing
// callee named as the non-alibi.
func leak() int {
	p := wire.Get() // want `\*wire.Packet acquired from wire.Get is never released or handed off.*client.peek borrows it without taking ownership`
	return peek(p)
}

// leakFresh shows the obligation following fresh's owned summary.
func leakFresh() {
	q := fresh() // want `\*wire.Packet acquired from client.fresh is never released or handed off`
	q.Retain()   // Retain is a borrow, not a consumption
}

// discarded drops the owned result on the floor.
func discarded() {
	wire.Get() // want `owned \*wire.Packet from wire.Get is discarded`
}

// blanked discards through the blank identifier.
func blanked() {
	_ = wire.Get() // want `owned \*wire.Packet from wire.Get is discarded`
}

// lentAndLost feeds an owned result straight to a borrowing callee.
func lentAndLost() int {
	return peek(wire.Get()) // want `owned \*wire.Packet from wire.Get is passed to client.peek, which does not take ownership`
}

// releasedLocally is clean: acquire, use, release.
func releasedLocally() int {
	p := wire.Get()
	n := peek(p)
	p.Release()
	return n
}

// handedOff is clean: consumeIt's summary consumes the argument.
func handedOff() {
	p := wire.Get()
	consumeIt(p)
}

// droppedDynamically is clean: ownership discharges through the
// interface call inside drop.
func droppedDynamically() {
	p := wire.Get()
	drop(p)
}

// stored is clean: stashing into a field or slice transfers ownership
// to the structure.
func stored(n *nic) {
	p := wire.Get()
	n.slot = p
	q := wire.Get()
	n.inflight = append(n.inflight, q)
}

// queued is clean: pushing onto a generic ring stores the packet. The
// parameter's type is a type parameter, tracked like an interface.
func queued(q *pool.Ring[*wire.Packet]) {
	p := wire.Get()
	q.Push(p)
}

// peekedOnly leaks: a generic method that never stores its argument only
// borrows it.
func peekedOnly(q *pool.Ring[*wire.Packet]) int {
	p := wire.Get() // want `\*wire.Packet acquired from wire.Get is never released or handed off.*pool.Peek borrows it without taking ownership`
	return q.Peek(p)
}

// continuation is clean: the closure captures the packet and owns it.
func continuation(n *nic) {
	p := wire.Get()
	n.deferred = func() { p.Release() }
}

// returned is clean: the caller inherits the obligation (and this is
// how fresh's owned summary is computed in the first place).
func returned() *wire.Packet {
	p := wire.Get()
	p.Retain()
	return p
}

// aliased is clean: consumption through an alias counts.
func aliased() {
	p := wire.Get()
	q := p
	q.Release()
}

// external is clean by optimism: an unknown callee (no loaded body,
// no intrinsic) is assumed to take ownership.
func external(sink func(*wire.Packet)) {
	p := wire.Get()
	sink(p)
}

// waived documents an out-of-band handoff with an allow.
func waived() *wire.Packet {
	//lint:qpip-allow bufown handed to the hardware model out of band in the same tick
	p := wire.Get()
	peek(p)
	return nil
}

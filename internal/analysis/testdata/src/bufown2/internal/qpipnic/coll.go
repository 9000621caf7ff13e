// Package qpipnic is a stand-in for the collective firmware's recycled
// ring message: the path suffix internal/qpipnic plus the type and method
// names make bufown's intrinsic table apply, so getCollMsg returns an
// owned reference, Release consumes its receiver and Retain is a pure
// borrow — regardless of these stub bodies. The type is unexported, so
// the cases live beside it.
package qpipnic

type collMsg struct {
	step int
	refs int
}

// NIC owns the free list.
type NIC struct {
	free  []*collMsg
	stash []*collMsg
}

// getCollMsg hands out a recycled message (intrinsic: owned result).
func (n *NIC) getCollMsg() *collMsg { return &collMsg{refs: 1} }

// Retain adds a holder (intrinsic: borrow).
func (m *collMsg) Retain() { m.refs++ }

// Release drops a holder (intrinsic: consumes receiver).
func (m *collMsg) Release() { m.refs-- }

// send hands the message to the fabric, which releases it on delivery.
func (n *NIC) send(m *collMsg) { m.Release() }

// stepOf only reads.
func stepOf(m *collMsg) int { return m.step }

// builtAndForgotten fills a message in and never sends it: the free list
// starves.
func (n *NIC) builtAndForgotten(step int) int {
	m := n.getCollMsg() // want `\*qpipnic.collMsg acquired from qpipnic.getCollMsg is never released or handed off.*qpipnic.stepOf borrows it without taking ownership`
	m.step = step
	m.Retain()
	return stepOf(m)
}

// dropped discards the owned result outright.
func (n *NIC) dropped() {
	n.getCollMsg() // want `owned \*qpipnic.collMsg from qpipnic.getCollMsg is discarded`
}

// ringSend is clean: the send path takes ownership.
func (n *NIC) ringSend(step int) {
	m := n.getCollMsg()
	m.step = step
	n.send(m)
}

// dispatch is clean on every path: a stale step is released, a fresh one
// parks in the stash, which then holds the reference.
func (n *NIC) dispatch(m *collMsg, next int) {
	if m.step < next {
		m.Release()
		return
	}
	n.stash[m.step] = m
}

// drain is clean: the parked reference is released once combined.
func (n *NIC) drain(next int) int {
	m := n.stash[next]
	n.stash[next] = nil
	s := stepOf(m)
	m.Release()
	return s
}

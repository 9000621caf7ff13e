package qpipnic

import "repro/internal/sim"

// CollMsgsLive exposes the recycled ring-message balance (handed out here
// minus recycled here) to the external cluster tests.
func (n *NIC) CollMsgsLive() int { return n.collLive }

// SRQStates reports how many receive pools hold adapter-side waiter
// state (shared pools with a parked connection since the last crash).
func (n *NIC) SRQStates() int { return len(n.srqs) }

// EmissionFloor exposes the adapter's fabric floor to the external
// cluster tests.
func (n *NIC) EmissionFloor(next sim.Time) sim.Time { return n.emissionFloor(next) }

package hostos

import (
	"repro/internal/sim"
	"repro/internal/wire"
)

// loopback is the kernel's internal device: packets re-enter the receive
// path on the same host with no wire, no DMA and no interrupt — only
// protocol processing remains. Measuring RTT through it is how the paper
// derives the host-based stack's per-message overhead: "The overhead for
// the host-based inter-network stack was determined by measuring RTT
// through the loopback interface on an individual host" (§4.2.2).
type loopback struct {
	k *Kernel
	// deliver holds packets between Transmit and their same-tick delivery
	// event; same-tick events fire in schedule order.
	deliver *sim.Jobs[*wire.Packet]
}

// LoopbackMTU matches the Linux lo default of the era.
const LoopbackMTU = 16436

// MTU implements NetDevice.
func (l *loopback) MTU() int { return LoopbackMTU }

// Transmit implements NetDevice: immediate software delivery back into
// the local stack.
func (l *loopback) Transmit(pkt *wire.Packet, _ int) {
	//lint:qpip-allow shardsafe the loopback device shares its owning kernel's engine; delivery never leaves the shard
	l.k.eng.After(0, "lo.deliver", l.deliver.Add(pkt))
}

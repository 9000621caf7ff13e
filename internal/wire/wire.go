// Package wire defines the network-layer packet representation shared by
// the QPIP NIC firmware and the host-based stacks. Headers are real
// marshaled bytes; the bulk payload rides as a buf.Buf so gigabyte
// transfers need not materialize.
//
// # Ownership
//
// Packets obtained from Get are reference-counted and recycled through a
// sync.Pool. The producer (a NIC transmit path or host stack) marshals the
// IP and transport headers into the packet's embedded scratch space, hands
// the packet to the fabric, and gives up ownership: whoever consumes the
// final delivery — the receiving NIC's protocol dispatch, or the fabric
// itself on a drop — calls Release exactly once. Retain adds a reference
// when one delivery must fan out (fault-injected duplication). Packets
// built with a plain composite literal are not pooled; Retain/Release are
// no-ops on them, so test code and fault-injection clones need no special
// handling.
package wire

import (
	"sync"

	"repro/internal/buf"
)

// Scratch sizes: a full IPv6 header (IPv4 needs less) and the largest
// transport header the simulator emits (TCP with every option is 44 bytes).
const (
	ipScratchLen = 40
	l4ScratchLen = 64
)

// Packet is one IP packet: a network header, a transport header, and the
// transport payload.
type Packet struct {
	// IsV4 selects IPv4 (host baseline stacks) vs IPv6 (QPIP, paper §4.1).
	IsV4 bool
	// IPHdr is the marshaled IPv4 or IPv6 header.
	IPHdr []byte
	// L4Hdr is the marshaled TCP or UDP header (checksum patched in).
	L4Hdr []byte
	// Payload is the transport payload.
	Payload buf.Buf
	// Epoch is the sender NIC's boot generation (QPIP adapters stamp it on
	// every frame; zero means "unversioned sender"). Receivers fence
	// connections with it: a frame from an older epoch is a stale pre-crash
	// straggler and is dropped, a newer epoch proves the peer rebooted
	// (DESIGN §13).
	Epoch uint32

	refs    int32
	pooled  bool
	scratch [ipScratchLen + l4ScratchLen]byte
}

// Len reports the packet's total network-layer length.
func (p *Packet) Len() int { return len(p.IPHdr) + len(p.L4Hdr) + p.Payload.Len() }

// Packet identity never reaches event order: Get re-initializes every field
// and refcounts police reuse, so pooling is invisible to the simulation.
//
//lint:qpip-allow nogoroutine free list only; no synchronization semantics leak into the model
var pktPool = sync.Pool{New: func() any { return new(Packet) }}

// Get returns an empty packet with one reference. Marshal headers into
// IPScratch/L4Scratch and point IPHdr/L4Hdr at the results.
func Get() *Packet {
	p := pktPool.Get().(*Packet)
	p.refs = 1
	p.pooled = true
	return p
}

// IPScratch returns the packet's embedded IP-header scratch space.
func (p *Packet) IPScratch() []byte { return p.scratch[:ipScratchLen] }

// L4Scratch returns the packet's embedded transport-header scratch space.
func (p *Packet) L4Scratch() []byte { return p.scratch[ipScratchLen:] }

// Retain adds a reference so the packet survives one extra Release. It is a
// no-op on packets that were not obtained from Get.
func (p *Packet) Retain() {
	if p.refs > 0 {
		p.refs++
	}
}

// Release drops one reference; the last one recycles a pooled packet. Extra
// Releases on non-refcounted packets are harmless no-ops.
func (p *Packet) Release() {
	if p.refs == 0 {
		return
	}
	p.refs--
	if p.refs == 0 && p.pooled {
		p.IsV4 = false
		p.IPHdr = nil
		p.L4Hdr = nil
		p.Payload = buf.Buf{}
		p.Epoch = 0
		p.pooled = false
		pktPool.Put(p)
	}
}

// Package wire stands in for the pooled packet package: its import path
// ends in internal/wire and exports Get/Release with the same shape, so
// bufown treats its Packet exactly like the real one.
package wire

// Packet is a pooled, reference-counted network packet.
type Packet struct {
	refs    int
	Payload []byte
}

// Get hands out a packet with one reference.
func Get() *Packet { return &Packet{refs: 1} }

// Release drops one reference.
func (p *Packet) Release() { p.refs-- }

// Len reports the payload length.
func (p *Packet) Len() int { return len(p.Payload) }

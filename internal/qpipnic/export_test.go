package qpipnic

// CollMsgsLive exposes the recycled ring-message balance (handed out here
// minus recycled here) to the external cluster tests.
func (n *NIC) CollMsgsLive() int { return n.collLive }

package inet

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Protocol numbers shared by IPv4's Protocol field and IPv6's Next Header
// field (IANA assigned).
const (
	ProtoTCP = 6
	ProtoUDP = 17
)

// Addr4 is an IPv4 address.
type Addr4 [4]byte

// V4 builds an IPv4 address from its dotted-quad components.
func V4(a, b, c, d byte) Addr4 { return Addr4{a, b, c, d} }

func (a Addr4) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// Uint32 returns the address in host integer form (big-endian order).
func (a Addr4) Uint32() uint32 { return binary.BigEndian.Uint32(a[:]) }

// Addr6 is an IPv6 address.
type Addr6 [16]byte

// V6 builds an IPv6 address from eight 16-bit groups.
func V6(groups ...uint16) Addr6 {
	if len(groups) != 8 {
		panic(fmt.Sprintf("inet: V6 needs 8 groups, got %d", len(groups)))
	}
	var a Addr6
	for i, g := range groups {
		binary.BigEndian.PutUint16(a[2*i:], g)
	}
	return a
}

// NodeAddr6 returns a deterministic site-local style IPv6 address for the
// n-th node of a simulated SAN, mirroring the prototype's static address
// plan.
func NodeAddr6(n int) Addr6 {
	return V6(0xfec0, 0, 0, 0, 0, 0, 0, uint16(n+1))
}

// NodeAddr4 returns a deterministic private IPv4 address for the n-th node,
// used by the host-based IPv4 baseline stacks.
func NodeAddr4(n int) Addr4 {
	return V4(10, 0, byte(n>>8), byte(n&0xff)+1)
}

func (a Addr6) String() string {
	return fmt.Sprintf("%x:%x:%x:%x:%x:%x:%x:%x",
		binary.BigEndian.Uint16(a[0:]), binary.BigEndian.Uint16(a[2:]),
		binary.BigEndian.Uint16(a[4:]), binary.BigEndian.Uint16(a[6:]),
		binary.BigEndian.Uint16(a[8:]), binary.BigEndian.Uint16(a[10:]),
		binary.BigEndian.Uint16(a[12:]), binary.BigEndian.Uint16(a[14:]))
}

// IsZero reports whether the address is all zeros (the unspecified address).
func (a Addr6) IsZero() bool { return a == Addr6{} }

// Compare orders addresses bytewise: -1, 0 or +1.
func (a Addr4) Compare(b Addr4) int { return bytes.Compare(a[:], b[:]) }

// Compare orders addresses bytewise: -1, 0 or +1.
func (a Addr6) Compare(b Addr6) int { return bytes.Compare(a[:], b[:]) }

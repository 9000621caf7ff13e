package inet

import "errors"

// The QPIP prototype resolved addresses with "a static table that maps IPv6
// addresses to switch routes" (paper §4.1). Table6 is that static table:
// it maps inter-network addresses to fabric attachment identifiers. The
// fabric layer turns an attachment identifier into an actual source route
// or switch port. The host-based baseline routes IPv4 through its kernel's
// own map (hostos).

// ErrNoRoute reports an address with no table entry. It is a fixed
// sentinel rather than an address-bearing fmt.Errorf because Lookup sits
// on the per-packet transmit path and must not allocate.
var ErrNoRoute = errors.New("inet: no route to destination")

// Table6 is a static IPv6 address resolution table.
type Table6 struct {
	m map[Addr6]int
}

// NewTable6 returns an empty table.
func NewTable6() *Table6 { return &Table6{m: make(map[Addr6]int)} }

// Add binds addr to a fabric attachment. Re-adding an address overwrites
// the previous binding.
func (t *Table6) Add(addr Addr6, attachment int) { t.m[addr] = attachment }

// Lookup resolves addr to its attachment.
func (t *Table6) Lookup(addr Addr6) (int, error) {
	a, ok := t.m[addr]
	if !ok {
		return 0, ErrNoRoute
	}
	return a, nil
}

// Len reports the number of entries.
func (t *Table6) Len() int { return len(t.m) }

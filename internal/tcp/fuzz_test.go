package tcp

import (
	"bytes"
	"sort"
	"testing"
)

// FuzzParseHeader throws arbitrary bytes at the TCP header parser: no
// input may panic, and any header it accepts must claim a length within
// the input. Option soup (NOPs, truncated kinds, zero lengths) is the
// interesting surface.
func FuzzParseHeader(f *testing.F) {
	syn := (&Segment{
		SrcPort: 4660, DstPort: 7000, Seq: 100, Flags: SYN,
		Wnd: 65535, MSS: 16384, WScale: 7, SACKPerm: true,
		HasTS: true, TSVal: 1, TSEcr: 0,
	}).MarshalHeader()
	plain := (&Segment{
		SrcPort: 1, DstPort: 2, Seq: 5, Ack: 6, Flags: ACK, Wnd: 100, WScale: -1,
	}).MarshalHeader()
	f.Add(syn)
	f.Add(plain)
	f.Add(plain[:19]) // truncated base header
	f.Add(plain[:0])
	badOffset := bytes.Clone(plain)
	badOffset[12] = 0xf0 // claims 60-byte header in a 20-byte buffer
	f.Add(badOffset)
	zeroLenOpt := bytes.Clone(syn)
	zeroLenOpt[BaseHeaderLen+1] = 0 // option length 0: must not loop forever
	f.Add(zeroLenOpt)
	f.Fuzz(func(t *testing.T, b []byte) {
		s, hlen, err := ParseHeader(b)
		if err != nil {
			return
		}
		if hlen < BaseHeaderLen || hlen > len(b) {
			t.Fatalf("accepted header length %d outside input of %d bytes", hlen, len(b))
		}
		_ = s.Flags.String()
	})
}

// endpointsModel is the naive reference for Endpoints: a port is reserved
// exactly when a listener or some registered key uses it, found by
// scanning; nothing is reference-counted.
type endpointsModel struct {
	conns     map[Key[addr]]int
	listeners map[uint16]int
	next      uint16
	iss       uint32
}

func newEndpointsModel() *endpointsModel {
	return &endpointsModel{conns: map[Key[addr]]int{}, listeners: map[uint16]int{}, next: EphemeralMin}
}

func (m *endpointsModel) busy(p uint16) bool {
	if _, ok := m.listeners[p]; ok {
		return true
	}
	for k := range m.conns {
		if k.LocalPort == p {
			return true
		}
	}
	return false
}

func (m *endpointsModel) ports() int {
	seen := map[uint16]bool{}
	for p := range m.listeners {
		seen[p] = true
	}
	for k := range m.conns {
		seen[k.LocalPort] = true
	}
	return len(seen)
}

// FuzzEndpoints runs register / reap / listen / connect / demux / Reset
// sequences against Endpoints and the naive model and requires identical
// answers: ports, ISS, listen refusals, verdicts, owners and table sizes.
// Each op takes three input bytes; ports come from a small set so keys
// collide, and one op moves the ephemeral cursor near the wrap.
func FuzzEndpoints(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 0, 5, 0, 0})
	f.Add([]byte{2, 1, 0, 0, 1, 0, 1, 1, 16, 5, 1, 0, 3, 0, 0})
	f.Add([]byte{6, 4, 0, 3, 0, 0, 3, 0, 0, 3, 0, 0, 4, 0, 0, 3, 0, 0})
	f.Add([]byte{3, 0, 0, 2, 4, 0, 0, 4, 17, 1, 4, 1, 2, 4, 0})
	f.Add([]byte{0, 0, 0, 1, 0, 0x12, 5, 0, 0}) // a reap by the wrong owner
	lports := [...]uint16{7000, 7001, EphemeralMin, EphemeralMin + 1, 65535}
	f.Fuzz(func(t *testing.T, b []byte) {
		ep, _ := newTable()
		m := newEndpointsModel()
		for i := 0; i+2 < len(b) && i < 3*200; i += 3 {
			op, x, y := b[i]%7, b[i+1], b[i+2]
			key := Key[addr]{lports[int(x)%len(lports)], addr(x>>4) % 3, uint16(y % 3)}
			owner := int(y>>4) % 4
			switch op {
			case 0: // register a free key, as a passive open does
				if _, held := m.conns[key]; held {
					continue
				}
				c := ep.Open(key, owner, Config{})
				m.iss += 64000
				if c.iss != Seq(m.iss) {
					t.Fatalf("op %d: Open ISS %d, model %d", i/3, c.iss, m.iss)
				}
				m.conns[key] = owner
			case 1: // reap
				ep.Reap(key, owner)
				if cur, ok := m.conns[key]; ok && cur == owner {
					delete(m.conns, key)
				}
			case 2: // listen
				err := ep.Listen(key.LocalPort, owner)
				busy := m.busy(key.LocalPort)
				if (err != nil) != busy {
					t.Fatalf("op %d: Listen(%d) = %v, model busy %v", i/3, key.LocalPort, err, busy)
				}
				if !busy {
					m.listeners[key.LocalPort] = owner
				}
			case 3: // connect on an ephemeral port
				c, port, err := ep.Connect(key.RemoteAddr, key.RemotePort, owner, Config{})
				if err != nil {
					t.Fatalf("op %d: Connect: %v", i/3, err)
				}
				var want uint16
				for {
					want = m.next
					m.next++
					if m.next == 0 {
						m.next = EphemeralMin
					}
					if !m.busy(want) {
						break
					}
				}
				m.iss += 64000
				if port != want || c.iss != Seq(m.iss) {
					t.Fatalf("op %d: Connect port %d ISS %d, model %d %d", i/3, port, c.iss, want, m.iss)
				}
				m.conns[Key[addr]{port, key.RemoteAddr, key.RemotePort}] = owner
			case 4: // adapter reboot
				ep.Reset()
				m = newEndpointsModel()
			case 5: // demux
				flags := [...]Flags{SYN, ACK, RST, SYN | ACK, FIN | ACK}[int(y>>4)%5]
				seg := &Segment{SrcPort: key.RemotePort, DstPort: key.LocalPort, Flags: flags}
				e, l, v := ep.Demux(seg, key.RemoteAddr)
				cur, ok := m.conns[key]
				lst, listening := m.listeners[key.LocalPort]
				switch {
				case ok:
					if v != Deliver || e != cur {
						t.Fatalf("op %d: Demux %v = %d %d, model owner %d", i/3, key, e, v, cur)
					}
				case flags == SYN && listening:
					if v != Accept || l != lst {
						t.Fatalf("op %d: Demux SYN = %d listener %d, model listener %d", i/3, v, l, lst)
					}
				case flags&RST != 0:
					if v != Drop {
						t.Fatalf("op %d: Demux RST = %d, want Drop", i/3, v)
					}
				default:
					if v != Refuse {
						t.Fatalf("op %d: Demux %v = %d, want Refuse", i/3, flags, v)
					}
				}
			case 6: // move the ephemeral cursor near the wrap
				ep.next = 65530 + uint16(x%6)
				m.next = ep.next
			}
			if ep.Len() != len(m.conns) || ep.Ports() != m.ports() {
				t.Fatalf("op %d: conns %d ports %d, model %d %d", i/3, ep.Len(), ep.Ports(), len(m.conns), m.ports())
			}
		}
		keys := make([]Key[addr], 0, len(m.conns))
		for k := range m.conns {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			a, b := keys[i], keys[j]
			if a.LocalPort != b.LocalPort {
				return a.LocalPort < b.LocalPort
			}
			if a.RemoteAddr != b.RemoteAddr {
				return a.RemoteAddr < b.RemoteAddr
			}
			return a.RemotePort < b.RemotePort
		})
		got := ep.Conns()
		if len(got) != len(keys) {
			t.Fatalf("Conns() lists %d owners, model %d", len(got), len(keys))
		}
		for i, k := range keys {
			if got[i] != m.conns[k] {
				t.Fatalf("Conns()[%d] = %d, model %d (key %v)", i, got[i], m.conns[k], k)
			}
		}
	})
}

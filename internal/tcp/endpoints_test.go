package tcp

import (
	"cmp"
	"errors"
	"testing"

	"repro/internal/buf"
)

// addr is a test address type for endpoint tables.
type addr uint32

func (a addr) Compare(b addr) int { return cmp.Compare(a, b) }

// table is the endpoint table the tests drive: owners and listeners are
// plain ids, and the counter cells are reachable by name.
type table = Endpoints[addr, int, int]

func newTable() (*table, map[string]*uint64) {
	cells := make(map[string]*uint64)
	t := NewEndpoints[addr, int, int](func(name string) *uint64 {
		v := new(uint64)
		cells[name] = v
		return v
	})
	return t, cells
}

func TestEndpointsEphemeralWrapAround(t *testing.T) {
	ep, _ := newTable()
	ep.next = 65534
	var got []uint16
	for i := 0; i < 3; i++ {
		_, port, err := ep.Connect(1, 80, i, Config{})
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, port)
	}
	if want := []uint16{65534, 65535, EphemeralMin}; got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("ephemeral ports %v, want %v", got, want)
	}
	// A wrapped allocator skips ports still in use.
	ep.next = 65535
	if _, port, _ := ep.Connect(1, 80, 9, Config{}); port != EphemeralMin+1 {
		t.Fatalf("after wrap: port %d, want %d (65535 and %d are held)", port, EphemeralMin+1, EphemeralMin)
	}
	// Every ephemeral port held: the allocator gives up instead of spinning.
	full, _ := newTable()
	for p := EphemeralMin; p < 1<<16; p++ {
		full.Open(Key[addr]{uint16(p), 1, 80}, p, Config{})
	}
	if _, _, err := full.Connect(1, 80, 0, Config{}); !errors.Is(err, ErrPortsExhausted) {
		t.Fatalf("Connect with every ephemeral port held: %v, want ErrPortsExhausted", err)
	}
}

func TestEndpointsListenerPortSurvivesChildReap(t *testing.T) {
	ep, _ := newTable()
	if err := ep.Listen(7000, 1); err != nil {
		t.Fatal(err)
	}
	child := Key[addr]{7000, 2, 40000}
	ep.Open(child, 10, Config{})
	if ep.Ports() != 1 || ep.Len() != 1 {
		t.Fatalf("ports %d, conns %d; want 1, 1", ep.Ports(), ep.Len())
	}
	ep.Reap(child, 10)
	if ep.Len() != 0 {
		t.Fatalf("conns %d after reap", ep.Len())
	}
	if ep.Ports() != 1 {
		t.Fatalf("ports %d after the child's reap, want 1 (the listener's)", ep.Ports())
	}
	if l, ok := ep.listeners[7000]; !ok || l != 1 {
		t.Fatalf("listener = %d, %v after the child's reap", l, ok)
	}
	if err := ep.Listen(7000, 3); !errors.Is(err, ErrPortBusy) {
		t.Fatalf("second Listen on a listening port: %v, want ErrPortBusy", err)
	}
}

func TestEndpointsStaleReapIsNoOp(t *testing.T) {
	ep, _ := newTable()
	k := Key[addr]{50000, 2, 7000}
	ep.Open(k, 1, Config{})
	ep.Reap(k, 1)
	ep.Open(k, 2, Config{}) // the 4-tuple is reused by a new owner
	ep.Reap(k, 1)           // the old owner's late second reap
	ep.Reap(Key[addr]{50001, 2, 7000}, 2)
	if ep.Len() != 1 || ep.Ports() != 1 {
		t.Fatalf("conns %d, ports %d after stale reaps; want 1, 1", ep.Len(), ep.Ports())
	}
	seg := &Segment{SrcPort: 7000, DstPort: 50000, Flags: ACK}
	if e, _, v := ep.Demux(seg, 2); v != Deliver || e != 2 {
		t.Fatalf("Demux = %d, %v; want owner 2, Deliver", e, v)
	}
}

func TestEndpointsListenOnActivePortRefused(t *testing.T) {
	ep, _ := newTable()
	_, port, err := ep.Connect(2, 7000, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Listen(port, 1); !errors.Is(err, ErrPortBusy) {
		t.Fatalf("Listen on port %d held by a connection: %v, want ErrPortBusy", port, err)
	}
	ep.Reap(Key[addr]{port, 2, 7000}, 1)
	if err := ep.Listen(port, 1); err != nil {
		t.Fatalf("Listen after the connection's reap: %v", err)
	}
}

func TestEndpointsResetRestoresPowerOnState(t *testing.T) {
	ep, cells := newTable()
	fresh, _ := newTable()
	open := func(ep *table) (*Conn, uint16) {
		c, port, err := ep.Connect(2, 7000, 1, Config{})
		if err != nil {
			t.Fatal(err)
		}
		return c, port
	}
	ep.Listen(7000, 1)
	open(ep)
	open(ep)
	ep.Demux(&Segment{DstPort: 9, Flags: SYN}, 3)
	ep.Reset()
	if ep.Len() != 0 || ep.Ports() != 0 {
		t.Fatalf("conns %d, ports %d after Reset", ep.Len(), ep.Ports())
	}
	if _, ok := ep.listeners[7000]; ok {
		t.Fatal("listener survived Reset")
	}
	c, port := open(ep)
	c0, port0 := open(fresh)
	if port != port0 || c.iss != c0.iss {
		t.Fatalf("after Reset: port %d, ISS %d; power-on gives %d, %d", port, c.iss, port0, c0.iss)
	}
	if *cells["conn.refused"] != 1 {
		t.Fatalf("conn.refused = %d; Reset must not clear counters", *cells["conn.refused"])
	}
}

// TestEndpointsRefusalRule pins RFC 793's answer to a segment with no TCB,
// and the counter each case lands in.
func TestEndpointsRefusalRule(t *testing.T) {
	ep, cells := newTable()
	ep.Listen(7000, 5)
	for _, tc := range []struct {
		flags Flags
		port  uint16
		want  Verdict
		cell  string
	}{
		{SYN, 7000, Accept, ""},
		{SYN, 7001, Refuse, "conn.refused"},
		{SYN | ACK, 7000, Refuse, "rx.unknown-rst"},
		{ACK, 7000, Refuse, "rx.unknown-rst"},
		{ACK | PSH, 7001, Refuse, "rx.unknown-rst"},
		{FIN | ACK, 7000, Refuse, "rx.unknown-rst"},
		{RST, 7001, Drop, "rx.drop.no-port"},
		{RST | ACK, 7000, Drop, "rx.drop.no-port"},
	} {
		before := map[string]uint64{}
		for n, c := range cells {
			before[n] = *c
		}
		seg := &Segment{SrcPort: 40000, DstPort: tc.port, Seq: 77, Flags: tc.flags}
		_, l, v := ep.Demux(seg, 2)
		if v != tc.want {
			t.Errorf("%v to %d: verdict %d, want %d", tc.flags, tc.port, v, tc.want)
		}
		if v == Accept && l != 5 {
			t.Errorf("%v to %d: listener %d, want 5", tc.flags, tc.port, l)
		}
		for n, c := range cells {
			want := before[n]
			if n == tc.cell {
				want++
			}
			if *c != want {
				t.Errorf("%v to %d: %s = %d, want %d", tc.flags, tc.port, n, *c, want)
			}
		}
	}
	// A refused SYN is acknowledged; any other segment is answered at the
	// sequence number it acknowledges, which its sender's TCB accepts.
	rst := Refusal(&Segment{SrcPort: 40000, DstPort: 7001, Seq: 77, Flags: SYN})
	if rst.SrcPort != 7001 || rst.DstPort != 40000 || rst.Flags != RST|ACK || rst.Seq != 0 || rst.Ack != 78 {
		t.Errorf("Refusal(SYN) = %+v", rst)
	}
	rst.Release()
	rst = Refusal(&Segment{SrcPort: 40000, DstPort: 7000, Seq: 77, Ack: 900, Flags: ACK | PSH, Payload: buf.Virtual(10)})
	if rst.Flags != RST || rst.Seq != 900 || rst.Payload.Len() != 0 {
		t.Errorf("Refusal(data) = %+v", rst)
	}
	rst.Release()
}

// TestTimerRetransmitClassification drives one connection's timers
// through a delayed ACK, a zero-window probe and an RTO retransmission,
// and checks that only the last counts as a retransmission. In record
// mode the count must equal the firmware's historical rule (a timer
// segment counts when it carries data, SYN or FIN); in stream mode the
// 1-byte probe carries data yet is a first transmission, so no rule that
// inspects segments gets it right.
func TestTimerRetransmitClassification(t *testing.T) {
	firmwareRule := func(a Actions) uint64 {
		var n uint64
		for _, seg := range a.Segments {
			if seg.Payload.Len() > 0 || seg.Flags.Has(SYN) || seg.Flags.Has(FIN) {
				n++
			}
		}
		return n
	}
	for _, mode := range []Mode{Stream, Record} {
		t.Run(map[Mode]string{Stream: "stream", Record: "record"}[mode], func(t *testing.T) {
			n := pair(t, mode, 1000, 4000, func(c *Config) {
				if c.LocalPort == 1000 {
					c.DelayedAck = true // side 0 holds its ACK for the timer
				} else if mode == Record {
					c.RecvWindow, c.MaxRecvWindow = -1, 64*1024 // side 1 starts closed
				}
			})
			ep, cells := newTable()
			c := n.conns[0]
			// step delivers the oldest in-flight segment.
			step := func() {
				ev := n.events[0]
				n.events = n.events[1:]
				n.now = max(n.now, ev.at)
				n.apply(ev.to, n.conns[ev.to].Input(ev.seg, n.now))
			}
			drain := func() {
				for len(n.events) > 0 {
					step()
				}
			}
			// fire runs side 0's next timer through the endpoint table and
			// reports what it emitted and what it counted.
			fire := func(what string) (Actions, uint64) {
				d, ok := c.NextTimeout()
				if !ok {
					t.Fatalf("%s: no timer armed", what)
				}
				n.now = max(n.now, d)
				before := *cells["tx.retransmit"]
				a := ep.OnTimer(c, n.now)
				got := *cells["tx.retransmit"] - before
				if len(a.Segments) != 1 {
					t.Fatalf("%s: timer emitted %d segments, want 1", what, len(a.Segments))
				}
				if mode == Record && got != firmwareRule(a) {
					t.Errorf("%s: counted %d, firmware rule %d", what, got, firmwareRule(a))
				}
				n.apply(0, a)
				return a, got
			}

			// 1. A delayed ACK for data side 1 sent.
			n.send(1, buf.Virtual(100))
			drain()
			if _, got := fire("delayed ack"); got != 0 {
				t.Errorf("delayed ack counted %d retransmits, want 0", got)
			}
			drain()

			// 2. A zero-window probe: side 0 has data and side 1 no window.
			if mode == Stream {
				n.send(0, buf.Virtual(6000)) // 4000 fill side 1's unread buffer
				drain()
			} else {
				n.send(0, buf.Virtual(1000))
			}
			if c.SndWnd() != 0 || c.PendingSend() == 0 {
				t.Fatalf("side 0 not window-blocked: window %d, pending %d", c.SndWnd(), c.PendingSend())
			}
			probe, got := fire("window probe")
			if got != 0 {
				t.Errorf("window probe counted %d retransmits, want 0", got)
			}
			if mode == Stream && probe.Segments[0].Payload.Len() != 1 {
				t.Errorf("stream probe carries %d bytes, want 1", probe.Segments[0].Payload.Len())
			}
			n.events = nil // lost

			// 3. An RTO retransmission of lost data.
			if mode == Record {
				n.apply(1, n.conns[1].SetRecvWindow(64*1024, n.now))
				step() // the window update releases the record
				if len(n.events) != 1 || n.events[0].seg.Payload.Len() != 1000 {
					t.Fatalf("window update released %d segments", len(n.events))
				}
				n.events = nil // lost
			}
			rto, got := fire("rto")
			if got != 1 {
				t.Errorf("RTO retransmission counted %d retransmits, want 1", got)
			}
			if rto.Segments[0].Payload.Len() == 0 {
				t.Error("RTO re-sent no data")
			}
			if c.Stats().Retransmits != 1 {
				t.Errorf("TCB Retransmits = %d, want 1", c.Stats().Retransmits)
			}
		})
	}
}

func TestDemuxAllocFree(t *testing.T) {
	ep, _ := newTable()
	ep.Listen(7000, 1)
	ep.Open(Key[addr]{7000, 2, 40000}, 3, Config{})
	hit := &Segment{SrcPort: 40000, DstPort: 7000, Flags: ACK}
	syn := &Segment{SrcPort: 40001, DstPort: 7000, Flags: SYN}
	if n := testing.AllocsPerRun(1000, func() {
		ep.Demux(hit, 2)
		ep.Demux(syn, 2)
	}); n != 0 {
		t.Fatalf("Demux allocates %.1f per call pair, want 0", n)
	}
}

package tcp

import (
	"testing"

	"repro/internal/buf"
)

// TestZeroWindowPersistProbes drives a sender whose peer advertises a zero
// window while data is pending, through NextTimeout/OnTimer only. Record
// mode probes keepalive-style with a pure ACK at sndNxt-1 (a record cannot
// be split); stream mode sends a classic 1-byte probe and retransmits it.
// Either way the probes must back off, and once the receiver opens its
// window the transfer must finish even though the spontaneous window
// update is lost: the next probe's reply carries the open window.
func TestZeroWindowPersistProbes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		mode  Mode
		total int
		tweak func(*Config)
		open  func(n *testNet) Actions
	}{
		{
			// The receiver has posted no buffers: its window starts closed.
			name: "record", mode: Record, total: 4096,
			tweak: func(c *Config) {
				if c.LocalPort == 2000 {
					c.RecvWindow = -1
					c.MaxRecvWindow = 64 * 1024
				}
			},
			open: func(n *testNet) Actions { return n.conns[1].SetRecvWindow(64*1024, n.now) },
		},
		{
			// The receiving application never reads: 8 KB fill the buffer.
			name: "stream", mode: Stream, total: 12 * 1024,
			open: func(n *testNet) Actions { return n.conns[1].AppRead(8*1024, n.now) },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := pair(t, tc.mode, 4096, 8*1024, tc.tweak)
			c := n.conns[0]
			type probe struct {
				at  int64
				seg Segment
			}
			var probes []probe
			capture, dropNextUpdate := false, false
			n.drop = func(from, _ int, seg *Segment) bool {
				if from == 0 && capture {
					probes = append(probes, probe{n.now, *seg})
				}
				if from == 1 && dropNextUpdate {
					dropNextUpdate = false
					return true
				}
				return false
			}
			n.send(0, buf.Pattern(tc.total, 7))
			n.run(100_000_000) // whatever fits the window flows; the rest waits
			if c.PendingSend() == 0 || c.SndWnd() != 0 {
				t.Fatalf("sender not window-blocked: pending %d, window %d", c.PendingSend(), c.SndWnd())
			}

			capture = true
			n.run(30_000_000_000)
			capture = false
			if c.Stats().WindowProbes == 0 {
				t.Fatal("no window probes sent")
			}
			if len(probes) < 3 {
				t.Fatalf("%d probes in 30 s, want at least 3", len(probes))
			}
			for i, p := range probes {
				switch tc.mode {
				case Record:
					if p.seg.Flags != ACK || p.seg.Payload.Len() != 0 || p.seg.Seq != c.sndNxt.Add(-1) {
						t.Errorf("probe %d: flags %v, %d bytes at seq %d; want a pure ACK at sndNxt-1 = %d",
							i, p.seg.Flags, p.seg.Payload.Len(), p.seg.Seq, c.sndNxt.Add(-1))
					}
				case Stream:
					if p.seg.Payload.Len() != 1 || p.seg.Seq != c.sndUna {
						t.Errorf("probe %d: %d bytes at seq %d; want 1 byte at sndUna = %d",
							i, p.seg.Payload.Len(), p.seg.Seq, c.sndUna)
					}
				}
				if i >= 2 && p.at-probes[i-1].at <= probes[i-1].at-probes[i-2].at {
					t.Errorf("probe %d: interval %d ns did not grow from %d ns",
						i, p.at-probes[i-1].at, probes[i-1].at-probes[i-2].at)
				}
			}

			dropNextUpdate = true
			n.apply(1, tc.open(n))
			if dropNextUpdate {
				t.Fatal("opening the window emitted no window update")
			}
			n.run(120_000_000_000)
			if got := n.totalDelivered(1); got != tc.total {
				t.Fatalf("delivered %d of %d bytes after the window opened", got, tc.total)
			}
			if n.ackedB[0] != tc.total {
				t.Errorf("sender saw %d of %d bytes acknowledged", n.ackedB[0], tc.total)
			}
		})
	}
}

package fabric

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/params"
	"repro/internal/sim"
	"repro/internal/sim/par"
	"repro/internal/topo"
)

func myrinet(eng *sim.Engine) *Fabric {
	return New(eng, Config{
		Name:         "myri",
		Bandwidth:    params.MyrinetBandwidth,
		LinkOverhead: params.MyrinetHeaderBytes,
		CutThrough:   true,
		HopLatency:   params.MyrinetHopLatency,
		PropDelay:    params.CableLatency,
	})
}

func gige(eng *sim.Engine) *Fabric {
	return New(eng, Config{
		Name:         "gige",
		Bandwidth:    params.GigEBandwidth,
		MTU:          params.MTUEthernet,
		LinkOverhead: params.EthernetOverhead,
		CutThrough:   false,
		HopLatency:   params.GigESwitchLatency,
		PropDelay:    params.CableLatency,
	})
}

func TestCutThroughDeliveryTiming(t *testing.T) {
	eng := sim.NewEngine()
	f := myrinet(eng)
	var got sim.Time
	a := f.Attach(nil)
	b := f.Attach(func(fr *Frame) { got = eng.Now() })
	size := 1000
	f.Send(&Frame{Src: a, Dst: b, WireSize: size}, nil)
	eng.Run()
	// 1000B at 250 MB/s = 4 us serialization + 0.3 us hop + 0.1 us prop.
	want := sim.Time(float64(size)*1e9/params.MyrinetBandwidth) + params.MyrinetHopLatency + params.CableLatency
	if got != want {
		t.Errorf("delivered at %v, want %v", got, want)
	}
}

func TestStoreAndForwardReserializes(t *testing.T) {
	eng := sim.NewEngine()
	f := gige(eng)
	var got sim.Time
	a := f.Attach(nil)
	b := f.Attach(func(fr *Frame) { got = eng.Now() })
	size := 1500
	f.Send(&Frame{Src: a, Dst: b, WireSize: size}, nil)
	eng.Run()
	ser := sim.Time(float64(size) * 1e9 / params.GigEBandwidth)
	want := 2*ser + params.GigESwitchLatency + params.CableLatency
	if got != want {
		t.Errorf("delivered at %v, want %v (one serialization missing?)", got, want)
	}
}

func TestTxDoneFiresAtSerializationEnd(t *testing.T) {
	eng := sim.NewEngine()
	f := myrinet(eng)
	a := f.Attach(nil)
	b := f.Attach(nil)
	var txDone sim.Time
	f.Send(&Frame{Src: a, Dst: b, WireSize: 2500}, func() { txDone = eng.Now() })
	eng.Run()
	want := sim.Time(2500 * 1e9 / params.MyrinetBandwidth)
	if txDone != want {
		t.Errorf("txDone at %v, want %v", txDone, want)
	}
}

func TestLinkSerializationBacklog(t *testing.T) {
	eng := sim.NewEngine()
	f := myrinet(eng)
	a := f.Attach(nil)
	var arrivals []sim.Time
	b := f.Attach(func(fr *Frame) { arrivals = append(arrivals, eng.Now()) })
	for i := 0; i < 3; i++ {
		f.Send(&Frame{Src: a, Dst: b, WireSize: 1000}, nil)
	}
	eng.Run()
	if len(arrivals) != 3 {
		t.Fatalf("delivered %d frames", len(arrivals))
	}
	ser := sim.Time(1000 * 1e9 / params.MyrinetBandwidth)
	for i := 1; i < 3; i++ {
		if d := arrivals[i] - arrivals[i-1]; d != ser {
			t.Errorf("inter-arrival %d = %v, want %v (FCFS link)", i, d, ser)
		}
	}
}

func TestNoReordering(t *testing.T) {
	eng := sim.NewEngine()
	f := gige(eng)
	a := f.Attach(nil)
	var order []int
	b := f.Attach(func(fr *Frame) { order = append(order, fr.Payload.(int)) })
	// Mixed sizes: a smaller later frame must not overtake.
	f.Send(&Frame{Src: a, Dst: b, WireSize: 1500, Payload: 0}, nil)
	f.Send(&Frame{Src: a, Dst: b, WireSize: 64, Payload: 1}, nil)
	f.Send(&Frame{Src: a, Dst: b, WireSize: 1500, Payload: 2}, nil)
	eng.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("reordered: %v", order)
		}
	}
}

func TestMTUEnforced(t *testing.T) {
	eng := sim.NewEngine()
	f := gige(eng)
	a := f.Attach(nil)
	b := f.Attach(nil)
	defer func() {
		if recover() == nil {
			t.Error("oversized frame accepted")
		}
	}()
	f.Send(&Frame{Src: a, Dst: b, WireSize: 9500 + params.EthernetOverhead}, nil)
}

func TestMyrinetUnlimitedMTU(t *testing.T) {
	eng := sim.NewEngine()
	f := myrinet(eng)
	a := f.Attach(nil)
	delivered := false
	b := f.Attach(func(fr *Frame) { delivered = true })
	f.Send(&Frame{Src: a, Dst: b, WireSize: 64 * 1024}, nil) // paper: arbitrary MTU
	eng.Run()
	if !delivered {
		t.Error("large frame not delivered on arbitrary-MTU fabric")
	}
}

// TestDropInjection covers a plain drop decision from the Fault hook; the
// seeded fault layer is exercised in fault_integration_test.go.
func TestDropInjection(t *testing.T) {
	eng := sim.NewEngine()
	f := myrinet(eng)
	a := f.Attach(nil)
	count := 0
	b := f.Attach(func(fr *Frame) { count++ })
	f.Fault = func(fr *Frame, n uint64, now sim.Time) FaultDecision { return FaultDecision{Drop: n == 1} }
	txDones := 0
	for i := 0; i < 3; i++ {
		f.Send(&Frame{Src: a, Dst: b, WireSize: 100}, func() { txDones++ })
	}
	eng.Run()
	if count != 2 {
		t.Errorf("delivered %d frames, want 2", count)
	}
	if txDones != 3 {
		t.Errorf("txDone fired %d times, want 3 (sender pays for lost frames too)", txDones)
	}
	sent, delivered, dropped := f.Stats()
	if sent != 3 || delivered != 2 || dropped != 1 {
		t.Errorf("stats = %d/%d/%d", sent, delivered, dropped)
	}
}

func TestBidirectionalLinksIndependent(t *testing.T) {
	eng := sim.NewEngine()
	f := myrinet(eng)
	var atB, atA sim.Time
	a := f.Attach(func(fr *Frame) { atA = eng.Now() })
	b := f.Attach(func(fr *Frame) { atB = eng.Now() })
	// Full duplex: simultaneous opposite transfers must not serialize
	// against each other.
	f.Send(&Frame{Src: a, Dst: b, WireSize: 10000}, nil)
	f.Send(&Frame{Src: b, Dst: a, WireSize: 10000}, nil)
	eng.Run()
	if atA != atB {
		t.Errorf("opposite transfers finished at %v and %v; links not full duplex", atA, atB)
	}
}

func TestBadAttachmentPanics(t *testing.T) {
	eng := sim.NewEngine()
	f := myrinet(eng)
	f.Attach(nil)
	defer func() {
		if recover() == nil {
			t.Error("bad attachment accepted")
		}
	}()
	f.Send(&Frame{Src: 0, Dst: 5, WireSize: 10}, nil)
}

func TestThroughputMatchesLineRate(t *testing.T) {
	// Saturate a Myrinet link with back-to-back 16 KB frames for 10 ms of
	// simulated time; goodput must be ~250 MB/s.
	eng := sim.NewEngine()
	f := myrinet(eng)
	a := f.Attach(nil)
	var bytes int
	b := f.Attach(func(fr *Frame) { bytes += fr.WireSize })
	size := 16 * 1024
	var sendNext func()
	sendNext = func() {
		f.Send(&Frame{Src: a, Dst: b, WireSize: size}, func() {
			if eng.Now() < 10*sim.Millisecond {
				sendNext()
			}
		})
	}
	sendNext()
	eng.Run()
	rate := float64(bytes) / eng.Now().Seconds() // bytes/sec
	if rate < 0.97*params.MyrinetBandwidth || rate > 1.01*params.MyrinetBandwidth {
		t.Errorf("saturated rate %.1f MB/s, want ~%.1f MB/s", rate/1e6, params.MyrinetBandwidth/1e6)
	}
}

// TestMailFloorGuard checks every sharded handoff against the mail floor
// its outbox published. Port 0's first event sends a minimum-size frame
// across the shard cut: on the star, port 0 posts it at Send; on a
// two-switch ring with one switch per engine, switch 0's egress posts it
// when it grants. An honest floor publishes exactly the posted arrival,
// and the run delivers. A floor that lies by 1 ns publishes an arrival
// 1 ns late, and the handoff panics, naming the fabric, the outbox, and
// the floor and the arrival to the nanosecond.
func TestMailFloorGuard(t *testing.T) {
	ser := sim.Time(float64(params.MyrinetHeaderBytes) * 1e9 / params.MyrinetBandwidth)
	hop, prop := params.MyrinetHopLatency, params.CableLatency
	ring := topo.Build(topo.Spec{Kind: topo.Ring}, 2)
	cases := []struct {
		name   string
		topo   *topo.Graph
		sendAt sim.Time
		box    string   // the outbox that posts the crossing hop
		post   sim.Time // the crossing hop's arrival, relative to sendAt
		hops   sim.Time // the delivery, relative to sendAt
	}{
		{name: "star", sendAt: 5 * sim.Microsecond, box: "port 0",
			post: ser + hop + prop, hops: ser + hop + prop},
		{name: "star-after-1ms", sendAt: 561*sim.Millisecond + 551*sim.Microsecond + 7, box: "port 0",
			post: ser + hop + prop, hops: ser + hop + prop},
		{name: "topology", topo: ring, sendAt: 5 * sim.Microsecond,
			box:  fmt.Sprintf("switch 0 egress %d", ring.Route(0, 1)[0].Out),
			post: ser + 2*hop, hops: ser + 2*hop + prop},
	}
	for _, tc := range cases {
		run := func(lie sim.Time) (delivered sim.Time, panicked string) {
			engs := []*sim.Engine{sim.NewEngine(), sim.NewEngine()}
			f := myrinet(engs[0])
			f.cfg.Topo = tc.topo
			a := f.AttachOn(engs[0], nil)
			b := f.AttachOn(engs[1], func(*Frame) { delivered = engs[1].Now() })
			engs[0].At(tc.sendAt, "send", func() {
				f.Send(&Frame{Src: a, Dst: b, WireSize: params.MyrinetHeaderBytes}, nil)
			})
			defer func() {
				if r := recover(); r != nil {
					panicked = fmt.Sprint(r)
				}
			}()
			par.Run(par.Config{
				Engines:  engs,
				Exchange: f.DrainMailboxes,
				MailFloor: func(next []sim.Time) (sim.Time, bool) {
					floor, ok := f.MailFloor(engs, next)
					if !ok {
						t.Fatalf("%s: outboxes on two engines report no crossing", tc.name)
					}
					for _, box := range f.boxes {
						if box.floor != math.MaxInt64 {
							box.floor += lie
						}
					}
					return floor + lie, ok
				},
			})
			return delivered, ""
		}
		if got, msg := run(0); msg != "" || got != tc.sendAt+tc.hops {
			t.Errorf("%s: honest floor: delivered at %dns (panic %q), want %dns", tc.name, got, msg, tc.sendAt+tc.hops)
			continue
		}
		arrival := tc.sendAt + tc.post
		_, msg := run(1)
		for _, want := range []string{"fabric myri", tc.box + " ", fmt.Sprintf("%dns", arrival+1), fmt.Sprintf("%dns", arrival)} {
			if !strings.Contains(msg, want) {
				t.Errorf("%s: lying floor: panic %q does not name %q", tc.name, msg, want)
			}
		}
	}
}

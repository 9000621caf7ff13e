// External-package test: exercises the fault.Injector through the
// fabric's generalized fault hook. (The in-package TestDropInjection keeps
// covering the legacy Drop adapter.) Lives outside package fabric because
// fault imports fabric.
package fabric_test

import (
	"bytes"
	"testing"

	"repro/internal/buf"
	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/params"
	"repro/internal/sim"
	"repro/internal/wire"
)

func myrinet(eng *sim.Engine) *fabric.Fabric {
	return fabric.New(eng, fabric.Config{
		Name:         "myri",
		Bandwidth:    params.MyrinetBandwidth,
		LinkOverhead: params.MyrinetHeaderBytes,
		CutThrough:   true,
		HopLatency:   params.MyrinetHopLatency,
		PropDelay:    params.CableLatency,
	})
}

func TestInjectorScriptedDrop(t *testing.T) {
	eng := sim.NewEngine()
	f := myrinet(eng)
	a := f.Attach(nil)
	count := 0
	b := f.Attach(func(fr *fabric.Frame) { count++ })
	inj := fault.NewInjector(fault.Plan{DropFrames: []uint64{1}})
	inj.Attach(f)
	txDones := 0
	for i := 0; i < 3; i++ {
		f.Send(&fabric.Frame{Src: a, Dst: b, WireSize: 100}, func() { txDones++ })
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
	if inj.Stats().Drops != 1 {
		t.Errorf("injector Drops = %d, want 1", inj.Stats().Drops)
	}
}

func TestInjectorDuplication(t *testing.T) {
	eng := sim.NewEngine()
	f := myrinet(eng)
	a := f.Attach(nil)
	var arrivals []sim.Time
	b := f.Attach(func(fr *fabric.Frame) { arrivals = append(arrivals, eng.Now()) })
	inj := fault.NewInjector(fault.Plan{Seed: 3, DupProb: 1})
	inj.Attach(f)
	f.Send(&fabric.Frame{Src: a, Dst: b, WireSize: 1000}, nil)
	eng.Run()
	if len(arrivals) != 2 {
		t.Fatalf("got %d deliveries, want 2 (duplicate)", len(arrivals))
	}
	// The copy trails by one serialization time on a cut-through fabric.
	ser := sim.Time(float64(1000) * 1e9 / params.MyrinetBandwidth)
	if arrivals[1]-arrivals[0] != ser {
		t.Errorf("duplicate trails by %v, want %v", arrivals[1]-arrivals[0], ser)
	}
	if sent, delivered, _ := f.Stats(); sent != 1 || delivered != 2 {
		t.Errorf("sent %d, delivered %d, want 1 and 2", sent, delivered)
	}
	if got := inj.Stats().Dups; got != 1 {
		t.Errorf("injector Dups = %d, want 1", got)
	}
}

func TestInjectorExtraDelay(t *testing.T) {
	baseline := func(extra sim.Time) sim.Time {
		eng := sim.NewEngine()
		f := myrinet(eng)
		a := f.Attach(nil)
		var at sim.Time
		b := f.Attach(func(fr *fabric.Frame) { at = eng.Now() })
		if extra > 0 {
			fault.NewInjector(fault.Plan{Seed: 4, DelayProb: 1, MaxExtraDelay: extra}).Attach(f)
		}
		f.Send(&fabric.Frame{Src: a, Dst: b, WireSize: 500}, nil)
		eng.Run()
		return at
	}
	clean := baseline(0)
	delayed := baseline(10_000)
	d := delayed - clean
	if d <= 0 || d > 10_000 {
		t.Errorf("extra delay = %v, want in (0, 10000]", d)
	}
}

func TestInjectorCorruptionReplacesClone(t *testing.T) {
	eng := sim.NewEngine()
	f := myrinet(eng)
	a := f.Attach(nil)
	var got *wire.Packet
	b := f.Attach(func(fr *fabric.Frame) { got = fr.Payload.(*wire.Packet) })
	inj := fault.NewInjector(fault.Plan{Seed: 5, CorruptProb: 1, CorruptBits: 1})
	inj.Attach(f)

	ip := make([]byte, 40)
	l4 := make([]byte, 20)
	pkt := &wire.Packet{IPHdr: ip, L4Hdr: l4, Payload: buf.Pattern(100, 9)}
	origIP := append([]byte(nil), ip...)
	origPay := append([]byte(nil), pkt.Payload.Data()...)
	f.Send(&fabric.Frame{Src: a, Dst: b, WireSize: pkt.Len(), Payload: pkt}, nil)
	eng.Run()
	if got == nil {
		t.Fatal("no delivery")
	}
	if got == pkt {
		t.Fatal("corrupted frame delivered the original packet, not a clone")
	}
	same := bytes.Equal(got.IPHdr, origIP) &&
		bytes.Equal(got.L4Hdr, l4) &&
		bytes.Equal(got.Payload.Data(), origPay)
	if same {
		t.Fatal("delivered packet identical to original despite CorruptProb=1")
	}
	// Sender's copy untouched.
	if !bytes.Equal(pkt.IPHdr, origIP) || !bytes.Equal(pkt.Payload.Data(), origPay) {
		t.Fatal("corruption mutated the sender's packet")
	}
	if got := inj.Stats().Corrupts; got != 1 {
		t.Errorf("injector Corrupts = %d, want 1", got)
	}
}

func TestInjectorFlapWindow(t *testing.T) {
	eng := sim.NewEngine()
	f := myrinet(eng)
	a := f.Attach(nil)
	count := 0
	b := f.Attach(func(fr *fabric.Frame) { count++ })
	inj := fault.NewInjector(fault.Plan{Flaps: []fault.Flap{{Port: b, From: 1000, To: 2000}}})
	inj.Attach(f)
	send := func(at sim.Time) {
		eng.At(at, "send", func() {
			f.Send(&fabric.Frame{Src: a, Dst: b, WireSize: 64}, nil)
		})
	}
	send(0)    // before the window: delivered
	send(1500) // inside: lost
	send(2500) // after: delivered
	eng.Run()
	if count != 2 {
		t.Errorf("delivered %d frames, want 2 (one lost to the flap)", count)
	}
	if inj.Stats().FlapDrops != 1 {
		t.Errorf("FlapDrops = %d, want 1", inj.Stats().FlapDrops)
	}
}

// TestLegacyDropAdapterComposes: a Fault hook that wraps the seeded
// injector and adds its own drop composes with it; either one dropping
// loses the frame.
func TestLegacyDropAdapterComposes(t *testing.T) {
	eng := sim.NewEngine()
	f := myrinet(eng)
	a := f.Attach(nil)
	count := 0
	b := f.Attach(func(fr *fabric.Frame) { count++ })
	fault.NewInjector(fault.Plan{DropFrames: []uint64{0}}).Attach(f)
	seeded := f.Fault
	f.Fault = func(fr *fabric.Frame, n uint64, now sim.Time) fabric.FaultDecision {
		d := seeded(fr, n, now)
		if n == 2 {
			d.Drop = true
		}
		return d
	}
	for i := 0; i < 4; i++ {
		f.Send(&fabric.Frame{Src: a, Dst: b, WireSize: 64}, nil)
	}
	eng.Run()
	if count != 2 {
		t.Errorf("delivered %d frames, want 2 (one per hook dropped)", count)
	}
	_, _, dropped := f.Stats()
	if dropped != 2 {
		t.Errorf("dropped = %d, want 2", dropped)
	}
}

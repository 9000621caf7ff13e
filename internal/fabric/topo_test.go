package fabric

import (
	"testing"

	"repro/internal/params"
	"repro/internal/sim"
	"repro/internal/topo"
)

func myrinetTopo(eng *sim.Engine, spec topo.Spec, n int) *Fabric {
	return New(eng, Config{
		Name:         "myri",
		Bandwidth:    params.MyrinetBandwidth,
		LinkOverhead: params.MyrinetHeaderBytes,
		CutThrough:   true,
		HopLatency:   params.MyrinetHopLatency,
		PropDelay:    params.CableLatency,
		Topo:         topo.Build(spec, n),
	})
}

// The explicit one-switch star must deliver at exactly the legacy fast
// path's txDone + HopLatency + PropDelay — the degenerate-case contract.
func TestTopoStarMatchesLegacyTiming(t *testing.T) {
	eng := sim.NewEngine()
	f := myrinetTopo(eng, topo.Spec{Kind: topo.Star}, 2)
	var got sim.Time
	a := f.Attach(nil)
	b := f.Attach(func(fr *Frame) { got = eng.Now() })
	size := 1000
	f.Send(&Frame{Src: a, Dst: b, WireSize: size}, nil)
	eng.Run()
	want := sim.Time(float64(size)*1e9/params.MyrinetBandwidth) + params.MyrinetHopLatency + params.CableLatency
	if got != want {
		t.Errorf("delivered at %v, want legacy-identical %v", got, want)
	}
}

// A multi-hop route costs one HopLatency per switch traversed plus the
// final propagation; cut-through adds no per-hop re-serialization.
func TestTopoMultiHopTiming(t *testing.T) {
	eng := sim.NewEngine()
	f := myrinetTopo(eng, topo.Spec{Kind: topo.Ring}, 4)
	var got sim.Time
	for i := 0; i < 4; i++ {
		i := i
		f.Attach(func(fr *Frame) {
			if i == 2 {
				got = eng.Now()
			}
		})
	}
	size := 1000
	f.Send(&Frame{Src: 0, Dst: 2, WireSize: size}, nil)
	eng.Run()
	hops := sim.Time(3) // switches 0, 1, 2 on the clockwise route
	want := sim.Time(float64(size)*1e9/params.MyrinetBandwidth) +
		hops*params.MyrinetHopLatency + params.CableLatency
	if got != want {
		t.Errorf("delivered at %v, want %v", got, want)
	}
}

// Two frames reaching one egress in the same tick: the lower ingress port
// wins the grant, the other follows one serialization time later. This is
// the deterministic-contention contract of the arbiter (FIFO per port,
// ingress-index tie-break).
func TestTopoEgressContentionTieBreak(t *testing.T) {
	eng := sim.NewEngine()
	f := myrinetTopo(eng, topo.Spec{Kind: topo.Star}, 3)
	type arrival struct {
		src int
		at  sim.Time
	}
	var arrivals []arrival
	f.Attach(nil)
	f.Attach(nil)
	f.Attach(func(fr *Frame) { arrivals = append(arrivals, arrival{fr.Src, eng.Now()}) })
	size := 1000
	// Same tick, same size: both last bytes reach the switch together.
	f.Send(&Frame{Src: 0, Dst: 2, WireSize: size}, nil)
	f.Send(&Frame{Src: 1, Dst: 2, WireSize: size}, nil)
	eng.Run()
	if len(arrivals) != 2 {
		t.Fatalf("delivered %d frames, want 2", len(arrivals))
	}
	ser := sim.Time(float64(size) * 1e9 / params.MyrinetBandwidth)
	first := ser + params.MyrinetHopLatency + params.CableLatency
	if arrivals[0].src != 0 || arrivals[0].at != first {
		t.Errorf("first delivery = src %d at %v, want src 0 at %v", arrivals[0].src, arrivals[0].at, first)
	}
	if arrivals[1].src != 1 || arrivals[1].at != first+ser {
		t.Errorf("second delivery = src %d at %v, want src 1 at %v (one serialization behind)",
			arrivals[1].src, arrivals[1].at, first+ser)
	}
}

// Same-tick contention on the legacy star path: both frames teleport
// through the unmodeled crossbar, so they deliver at the same tick and the
// drain order is the send order — ingress port 0 before ingress port 1.
// This pins the contract the topo arbiter's tie-break generalizes.
func TestLegacyStarSameTickDrainOrder(t *testing.T) {
	eng := sim.NewEngine()
	f := myrinet(eng)
	var order []int
	var times []sim.Time
	f.Attach(nil)
	f.Attach(nil)
	f.Attach(func(fr *Frame) {
		order = append(order, fr.Src)
		times = append(times, eng.Now())
	})
	size := 1000
	f.Send(&Frame{Src: 0, Dst: 2, WireSize: size}, nil)
	f.Send(&Frame{Src: 1, Dst: 2, WireSize: size}, nil)
	eng.Run()
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("drain order = %v, want [0 1] (ingress port order)", order)
	}
	if times[0] != times[1] {
		t.Errorf("legacy path delivered at %v and %v, want the same tick", times[0], times[1])
	}
}

// Fault duplication on the topo path: the copy trails the original by one
// serialization time end to end, and both reach the handler.
func TestTopoDuplicateDelivery(t *testing.T) {
	eng := sim.NewEngine()
	f := myrinetTopo(eng, topo.Spec{Kind: topo.Ring}, 4)
	var at []sim.Time
	for i := 0; i < 4; i++ {
		i := i
		f.Attach(func(fr *Frame) {
			if i == 1 {
				at = append(at, eng.Now())
			}
		})
	}
	f.Fault = func(fr *Frame, n uint64, now sim.Time) FaultDecision {
		return FaultDecision{Duplicate: true}
	}
	size := 1000
	f.Send(&Frame{Src: 0, Dst: 1, WireSize: size}, nil)
	eng.Run()
	if len(at) != 2 {
		t.Fatalf("delivered %d copies, want 2", len(at))
	}
	ser := sim.Time(float64(size) * 1e9 / params.MyrinetBandwidth)
	if at[1]-at[0] != ser {
		t.Errorf("copies delivered %v apart, want one serialization %v", at[1]-at[0], ser)
	}
	if sent, delivered, _ := f.Stats(); sent != 1 || delivered != 2 {
		t.Errorf("sent %d, delivered %d, want 1 and 2", sent, delivered)
	}
}

// Fault drops on the topo path die at the source like on the star path:
// serialization is charged, nothing arrives.
func TestTopoDrop(t *testing.T) {
	eng := sim.NewEngine()
	f := myrinetTopo(eng, topo.Spec{Kind: topo.Mesh, W: 2, H: 2}, 4)
	delivered := 0
	for i := 0; i < 4; i++ {
		f.Attach(func(fr *Frame) { delivered++ })
	}
	f.Fault = func(fr *Frame, n uint64, now sim.Time) FaultDecision {
		return FaultDecision{Drop: n == 0}
	}
	f.Send(&Frame{Src: 0, Dst: 3, WireSize: 100}, nil)
	f.Send(&Frame{Src: 0, Dst: 3, WireSize: 100}, nil)
	eng.Run()
	if delivered != 1 {
		t.Errorf("delivered %d frames, want 1 (first dropped)", delivered)
	}
	sent, del, dropped := f.Stats()
	if sent != 2 || del != 1 || dropped != 1 {
		t.Errorf("stats = %d/%d/%d, want 2/1/1", sent, del, dropped)
	}
}

// A back-to-back stream through a shared ring link arrives in order and
// spaced by at least the serialization time at the contended egress.
func TestTopoPipelineOrdering(t *testing.T) {
	eng := sim.NewEngine()
	f := myrinetTopo(eng, topo.Spec{Kind: topo.Ring}, 4)
	var at []sim.Time
	var srcs []int
	for i := 0; i < 4; i++ {
		i := i
		f.Attach(func(fr *Frame) {
			if i == 2 {
				at = append(at, eng.Now())
				srcs = append(srcs, fr.Src)
			}
		})
	}
	size := 2000
	// 0->2 and 1->2 both take the clockwise route and share switch 1's
	// egress toward switch 2.
	f.Send(&Frame{Src: 0, Dst: 2, WireSize: size}, nil)
	f.Send(&Frame{Src: 1, Dst: 2, WireSize: size}, nil)
	eng.Run()
	if len(at) != 2 {
		t.Fatalf("delivered %d, want 2", len(at))
	}
	ser := sim.Time(float64(size) * 1e9 / params.MyrinetBandwidth)
	if at[1]-at[0] < ser {
		t.Errorf("deliveries %v apart, want >= one serialization %v", at[1]-at[0], ser)
	}
}

package gm_test

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/hostos"
	"repro/internal/hw"
	"repro/internal/inet"
	"repro/internal/params"
	"repro/internal/sim"
	"repro/internal/wire"
)

func pair(t *testing.T) (*sim.Engine, *fabric.Fabric, [2]*hostos.Kernel, [2]*gm.Device) {
	t.Helper()
	eng := sim.NewEngine()
	fab := fabric.New(eng, fabric.Config{
		Name:         "myri",
		Bandwidth:    params.MyrinetBandwidth,
		LinkOverhead: params.MyrinetHeaderBytes,
		CutThrough:   true,
		HopLatency:   params.MyrinetHopLatency,
		PropDelay:    params.CableLatency,
	})
	var ks [2]*hostos.Kernel
	var ds [2]*gm.Device
	for i := 0; i < 2; i++ {
		bus := hw.NewPCIBus(eng, "pci", params.PCIBandwidth, params.PCIDMASetup, params.PCIWriteLatency)
		ks[i] = hostos.NewKernel(eng, "host", inet.NodeAddr4(i), nil, bus)
		ds[i] = gm.New(eng, ks[i], fab, gm.Config{Name: "myri0"})
	}
	return eng, fab, ks, ds
}

func TestGMStagesThroughFirmware(t *testing.T) {
	eng, fab, ks, ds := pair(t)
	pkt := &wire.Packet{
		IsV4: true,
		IPHdr: inet.Marshal4(&inet.Header4{
			TotalLen: uint16(inet.IPv4HeaderLen),
			TTL:      64,
			Protocol: 0xfd,
			Src:      inet.NodeAddr4(0),
			Dst:      inet.NodeAddr4(1),
		}),
	}
	var delivered sim.Time
	ds[0].Transmit(pkt, ds[1].Attachment())
	eng.Run()
	delivered = eng.Now()
	if sent, delivered, _ := fab.Stats(); sent != 1 || delivered != 1 {
		t.Fatalf("sent=%d delivered=%d", sent, delivered)
	}
	// The kernel took it through softirq and dropped the unknown protocol.
	if got := ks[1].Net.Get("rx.drop.no-port"); got != 1 {
		t.Fatalf("rx.drop.no-port = %d, want 1", got)
	}
	// The firmware staging must add at least two FwPerPacketUS crossings.
	if delivered < 2*params.US(gm.FwPerPacketUS) {
		t.Errorf("delivery at %v is faster than the firmware allows", delivered)
	}
}

func TestGMTransmitSerializes(t *testing.T) {
	// Two back-to-back large packets: the second must wait for the first
	// to fully stage and inject (the GM event-loop behaviour).
	eng, _, _, ds := pair(t)
	mk := func() *wire.Packet {
		return &wire.Packet{
			IsV4: true,
			IPHdr: inet.Marshal4(&inet.Header4{
				TotalLen: uint16(inet.IPv4HeaderLen + 8000),
				TTL:      64, Protocol: 0xfd,
				Src: inet.NodeAddr4(0), Dst: inet.NodeAddr4(1),
			}),
		}
	}
	ds[0].Transmit(mk(), ds[1].Attachment())
	t1 := func() sim.Time {
		eng.Run()
		return eng.Now()
	}()
	ds[0].Transmit(mk(), ds[1].Attachment())
	eng.Run()
	t2 := eng.Now()
	if t2-0 < 2*t1-t1 { // second packet takes at least as long again
		t.Errorf("second packet finished suspiciously fast: t1=%v t2=%v", t1, t2)
	}
}

func TestGMDefaults(t *testing.T) {
	_, _, _, ds := pair(t)
	if ds[0].MTU() != params.MTUJumbo {
		t.Errorf("MTU = %d", ds[0].MTU())
	}
}

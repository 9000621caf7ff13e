package gige_test

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/gige"
	"repro/internal/hostos"
	"repro/internal/hw"
	"repro/internal/inet"
	"repro/internal/params"
	"repro/internal/sim"
	"repro/internal/wire"
)

func pair(t *testing.T) (*sim.Engine, *fabric.Fabric, [2]*hostos.Kernel, [2]*gige.Device) {
	t.Helper()
	eng := sim.NewEngine()
	fab := fabric.New(eng, fabric.Config{
		Name:         "eth",
		Bandwidth:    params.GigEBandwidth,
		MTU:          params.MTUEthernet,
		LinkOverhead: params.EthernetOverhead,
		HopLatency:   params.GigESwitchLatency,
		PropDelay:    params.CableLatency,
	})
	var ks [2]*hostos.Kernel
	var ds [2]*gige.Device
	for i := 0; i < 2; i++ {
		bus := hw.NewPCIBus(eng, "pci", params.PCIBandwidth, params.PCIDMASetup, params.PCIWriteLatency)
		ks[i] = hostos.NewKernel(eng, "host", inet.NodeAddr4(i), nil, bus)
		ds[i] = gige.New(eng, ks[i], fab, gige.Config{Name: "eth0"})
	}
	return eng, fab, ks, ds
}

func TestDeviceCountsAndDelivers(t *testing.T) {
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
	ds[0].Transmit(pkt, ds[1].Attachment())
	eng.Run()
	if sent, delivered, _ := fab.Stats(); sent != 1 || delivered != 1 {
		t.Fatalf("sent=%d delivered=%d", sent, delivered)
	}
	// The kernel took it through softirq and dropped the unknown protocol.
	if got := ks[1].Net.Get("rx.drop.no-port"); got != 1 {
		t.Fatalf("rx.drop.no-port = %d, want 1", got)
	}
}

func TestDeviceMTUDefaults(t *testing.T) {
	_, _, _, ds := pair(t)
	if ds[0].MTU() != params.MTUEthernet {
		t.Errorf("MTU = %d", ds[0].MTU())
	}
}

// Package gige models the Intel Pro1000 Gigabit Ethernet server adapter
// of the paper's testbed (§4.2): a conventional DMA ring NIC. All
// protocol work stays on the host; the device contributes descriptor DMA,
// wire serialization and interrupts (with coalescing).
package gige

import (
	"repro/internal/fabric"
	"repro/internal/hostos"
	"repro/internal/hw"
	"repro/internal/params"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Config parameterizes an adapter.
type Config struct {
	Name string
	// MTU of the interface (1500 standard, 9000 jumbo).
	MTU int
}

// Device is one Ethernet adapter bound to a kernel and a fabric.
type Device struct {
	cfg Config
	eng *sim.Engine
	k   *hostos.Kernel
	bus *hw.PCIBus
	fab *fabric.Fabric
	att int
	rx  *hostos.RxCoalescer

	// DMA event names, built once. txDMA and rxDMA hold each packet while
	// its transfer crosses the bus.
	txName, rxName string
	txDMA          *sim.Jobs[txPkt]
	rxDMA          *sim.Jobs[*wire.Packet]
}

// txPkt is a transmitted packet and its destination attachment.
type txPkt struct {
	pkt *wire.Packet
	dst int
}

// txDone puts a packet whose transfer from host memory completed onto
// the wire.
//
//qpip:hotpath
func (d *Device) txDone(t txPkt) {
	d.fab.Send(fabric.NewFrame(d.att, t.dst, t.pkt.Len()+params.EthernetOverhead, t.pkt), nil)
}

// New attaches an adapter to fab and binds it to kernel k.
func New(eng *sim.Engine, k *hostos.Kernel, fab *fabric.Fabric, cfg Config) *Device {
	if cfg.MTU <= 0 {
		cfg.MTU = params.MTUEthernet
	}
	d := &Device{cfg: cfg, eng: eng, k: k, bus: k.Bus(), fab: fab,
		txName: cfg.Name + ".txdma", rxName: cfg.Name + ".rxdma"}
	d.txDMA = sim.NewJobs(d.txDone)
	d.att = fab.AttachOn(eng, d.receive)
	d.rx = hostos.NewRxCoalescer(k, cfg.Name, params.GigEIntCoalescePkts, params.GigEIntCoalesceDelay)
	// A received packet lands in the host ring, where the unified rx
	// coalescer raises the paced interrupt and reaps in its ISR.
	d.rxDMA = sim.NewJobs(d.rx.Enqueue)
	return d
}

// MTU implements hostos.NetDevice.
func (d *Device) MTU() int { return d.cfg.MTU }

// Attachment reports the device's fabric attachment id.
func (d *Device) Attachment() int { return d.att }

// Transmit implements hostos.NetDevice: DMA the frame from host memory,
// then serialize onto the wire.
//
//qpip:hotpath
func (d *Device) Transmit(pkt *wire.Packet, dstAtt int) {
	d.bus.DMA(pkt.Len(), d.txName, d.txDMA.Add(txPkt{pkt, dstAtt}))
}

// receive is the fabric delivery handler: DMA into the host ring, then
// enqueue on the unified rx coalescer.
//
//qpip:hotpath
func (d *Device) receive(f *fabric.Frame) {
	pkt, ok := f.Payload.(*wire.Packet)
	if !ok {
		return
	}
	d.bus.DMA(pkt.Len(), d.rxName, d.rxDMA.Add(pkt))
}

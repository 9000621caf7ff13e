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
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Config parameterizes an adapter.
type Config struct {
	Name string
	// MTU of the interface (1500 standard, 9000 jumbo).
	MTU int
	// CoalescePkts / CoalesceDelay configure interrupt moderation.
	CoalescePkts  int
	CoalesceDelay sim.Time
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

	// DMA event names, built once; jobFree recycles the per-DMA jobs.
	txName, rxName string
	jobFree        []*dmaJob

	txPkts, rxPkts uint64
	txBytes        uint64
}

// dmaJob carries one packet across the PCI bus, in either direction. Its
// completion is bound once and jobs recycle through the device's free
// list, so a packet in flight costs no closure.
type dmaJob struct {
	d   *Device
	pkt *wire.Packet
	tx  bool
	dst int // tx: destination attachment
	fn  func()
}

//qpip:hotpath
func (d *Device) dma(pkt *wire.Packet, tx bool, dst int) {
	j := pool.Take(&d.jobFree)
	if j == nil {
		j = &dmaJob{d: d}
		j.fn = j.done
	}
	j.pkt, j.tx, j.dst = pkt, tx, dst
	name := d.rxName
	if tx {
		name = d.txName
	}
	d.bus.DMA(pkt.Len(), name, j.fn)
}

// done runs when the transfer completes: a transmitted packet goes onto
// the wire, a received one into the host ring (the unified rx coalescer
// raises the paced interrupt and reaps in its ISR).
//
//qpip:hotpath
func (j *dmaJob) done() {
	d, pkt, tx, dst := j.d, j.pkt, j.tx, j.dst
	j.pkt = nil
	d.jobFree = append(d.jobFree, j)
	if tx {
		d.fab.Send(fabric.NewFrame(d.att, dst, pkt.Len()+params.EthernetOverhead, pkt), nil)
		return
	}
	d.rx.Enqueue(pkt)
}

// New attaches an adapter to fab and binds it to kernel k.
func New(eng *sim.Engine, k *hostos.Kernel, fab *fabric.Fabric, cfg Config) *Device {
	if cfg.MTU <= 0 {
		cfg.MTU = params.MTUEthernet
	}
	if cfg.CoalescePkts == 0 {
		cfg.CoalescePkts = params.GigEIntCoalescePkts
	}
	if cfg.CoalesceDelay == 0 {
		cfg.CoalesceDelay = params.GigEIntCoalesceDelay
	}
	d := &Device{cfg: cfg, eng: eng, k: k, bus: k.Bus(), fab: fab,
		txName: cfg.Name + ".txdma", rxName: cfg.Name + ".rxdma"}
	d.att = fab.AttachOn(eng, d.receive)
	d.rx = hostos.NewRxCoalescer(k, cfg.Name, cfg.CoalescePkts, cfg.CoalesceDelay)
	return d
}

// IRQ exposes the receive interrupt line (pacing knob, coalescing-factor
// counters).
func (d *Device) IRQ() *hw.IRQLine { return d.rx.Line() }

// Name implements hostos.NetDevice.
func (d *Device) Name() string { return d.cfg.Name }

// MTU implements hostos.NetDevice.
func (d *Device) MTU() int { return d.cfg.MTU }

// Attachment reports the device's fabric attachment id.
func (d *Device) Attachment() int { return d.att }

// Stats reports (txPkts, rxPkts, txBytes).
func (d *Device) Stats() (tx, rx, txBytes uint64) { return d.txPkts, d.rxPkts, d.txBytes }

// Transmit implements hostos.NetDevice: DMA the frame from host memory,
// then serialize onto the wire.
//
//qpip:hotpath
func (d *Device) Transmit(pkt *wire.Packet, dstAtt int) {
	d.txPkts++
	d.txBytes += uint64(pkt.Len())
	d.dma(pkt, true, dstAtt)
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
	d.rxPkts++
	d.dma(pkt, false, 0)
}

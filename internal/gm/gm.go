// Package gm models the Myrinet adapter running Myricom's GM software as
// an IP link device — the paper's IP/Myrinet baseline (§4.2.1: "the
// Myrinet adapter running Myricom's GM v.1.4 software (9000 Byte MTU)").
// The host-based IP stack treats it as an Ethernet-like device; the LANai
// firmware moves each packet through adapter SRAM, so every packet pays
// firmware handling plus a store-and-forward DMA on each side, serialized
// by the single firmware loop — the same structural costs as the QPIP
// prototype, but with all protocol processing still on the host.
package gm

import (
	"repro/internal/fabric"
	"repro/internal/hostos"
	"repro/internal/hw"
	"repro/internal/params"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/wire"
)

// FwPerPacketUS is the GM firmware's per-packet handling cost (token
// matching, staging, route prepend) on the 133 MHz LANai.
const FwPerPacketUS = 15.0

// Config parameterizes a GM adapter.
type Config struct {
	Name string
	// MTU of the IP interface (9000 in the paper's runs).
	MTU int
	// CoalescePkts / CoalesceDelay configure interrupt moderation.
	CoalescePkts  int
	CoalesceDelay sim.Time
}

// Device is one GM adapter.
type Device struct {
	cfg Config
	eng *sim.Engine
	k   *hostos.Kernel
	bus *hw.PCIBus
	fab *fabric.Fabric
	att int
	rx  *hostos.RxCoalescer
	// lanai serializes firmware handling: one packet at a time through
	// SRAM, like the GM event loop.
	lanai *sim.CPU

	// txQ serializes outbound packets through the firmware loop: one
	// packet stages through SRAM and onto the wire before the next
	// starts, as in GM's event loop. txCur is the packet in the loop, and
	// the loop's three continuations are bound once in New.
	txQ    pool.Ring[txItem]
	txBusy bool
	txCur  txItem

	fwTxFn, txDMAFn, txDoneFn func()

	// Event names, built once; rxFree recycles the receive-side jobs.
	fwTxName, fwRxName, txDMAName, rxDMAName string
	rxFree                                   []*rxJob

	txPkts, rxPkts uint64
}

type txItem struct {
	pkt *wire.Packet
	dst int
}

// rxJob stages one arriving packet through adapter SRAM. Several can be
// in flight, so each carries its packet; the continuations are bound once
// and jobs recycle through the device's free list.
type rxJob struct {
	d           *Device
	pkt         *wire.Packet
	fwFn, dmaFn func()
}

//qpip:hotpath
func (j *rxJob) fwDone() {
	j.d.bus.BurstAt(j.pkt.Len(), params.GMDMABandwidth, j.d.rxDMAName, j.dmaFn)
}

//qpip:hotpath
func (j *rxJob) dmaDone() {
	d, pkt := j.d, j.pkt
	j.pkt = nil
	d.rxFree = append(d.rxFree, j)
	d.rx.Enqueue(pkt)
}

// New attaches a GM adapter to the Myrinet fabric.
func New(eng *sim.Engine, k *hostos.Kernel, fab *fabric.Fabric, cfg Config) *Device {
	if cfg.MTU <= 0 {
		cfg.MTU = params.MTUJumbo
	}
	if cfg.CoalescePkts == 0 {
		cfg.CoalescePkts = 4
	}
	if cfg.CoalesceDelay == 0 {
		cfg.CoalesceDelay = 50 * sim.Microsecond
	}
	d := &Device{
		cfg:   cfg,
		eng:   eng,
		k:     k,
		bus:   k.Bus(),
		fab:   fab,
		lanai: sim.NewCPU(eng, cfg.Name+".lanai", params.NICClockHz),

		fwTxName:  cfg.Name + ".fw.tx",
		fwRxName:  cfg.Name + ".fw.rx",
		txDMAName: cfg.Name + ".txdma",
		rxDMAName: cfg.Name + ".rxdma",
	}
	d.fwTxFn = func() {
		d.bus.BurstAt(d.txCur.pkt.Len(), params.GMDMABandwidth, d.txDMAName, d.txDMAFn)
	}
	d.txDMAFn = func() {
		it := d.txCur
		d.txCur = txItem{}
		d.fab.Send(fabric.NewFrame(d.att, it.dst, it.pkt.Len()+params.MyrinetHeaderBytes, it.pkt), d.txDoneFn)
	}
	d.txDoneFn = func() {
		d.txBusy = false
		d.kickTx()
	}
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

// Attachment reports the fabric attachment id.
func (d *Device) Attachment() int { return d.att }

// Stats reports (txPkts, rxPkts).
func (d *Device) Stats() (tx, rx uint64) { return d.txPkts, d.rxPkts }

// Transmit implements hostos.NetDevice: firmware stages the packet
// through SRAM (DMA at the GM IP-mode rate), then injects it. The loop
// handles one outbound packet at a time.
//
//qpip:hotpath
func (d *Device) Transmit(pkt *wire.Packet, dstAtt int) {
	d.txPkts++
	d.txQ.Push(txItem{pkt: pkt, dst: dstAtt})
	d.kickTx()
}

//qpip:hotpath
func (d *Device) kickTx() {
	if d.txBusy || d.txQ.Len() == 0 {
		return
	}
	d.txBusy = true
	d.txCur, _ = d.txQ.Pop()
	d.lanai.Do(params.US(FwPerPacketUS), d.fwTxName, d.fwTxFn)
}

// receive stages an arriving packet through SRAM, then hands it to the
// unified rx coalescer, which paces the host interrupt and reaps.
//
//qpip:hotpath
func (d *Device) receive(f *fabric.Frame) {
	pkt, ok := f.Payload.(*wire.Packet)
	if !ok {
		return
	}
	d.rxPkts++
	j := pool.Take(&d.rxFree)
	if j == nil {
		j = &rxJob{d: d}
		j.fwFn, j.dmaFn = j.fwDone, j.dmaDone
	}
	j.pkt = pkt
	d.lanai.Do(params.US(FwPerPacketUS), d.fwRxName, j.fwFn)
}

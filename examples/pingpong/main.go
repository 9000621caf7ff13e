// Pingpong measures application-to-application round-trip time over QPIP
// reliable (TCP) and unreliable (UDP) queue pairs — the experiment behind
// the paper's Figure 3. Run with -iters to change the measurement count
// and -fw to use the firmware receive checksum (the paper's 73/113 us
// configuration).
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/qpipnic"
	"repro/qpip"
)

func main() {
	iters := flag.Int("iters", 100, "round trips to measure")
	fw := flag.Bool("fw", false, "firmware receive checksum (default: emulated hardware)")
	flag.Parse()

	cs := qpip.ChecksumEmulatedHW
	if *fw {
		cs = qpip.ChecksumFirmware
	}
	for _, transport := range []struct {
		name string
		udp  bool
	}{{"TCP (reliable QP)", false}, {"UDP (unreliable QP)", true}} {
		rtt := measure(cs, transport.udp, *iters)
		fmt.Printf("%-22s 1-byte RTT: %.1f us over %d round trips\n", transport.name, rtt, *iters)
	}
}

func measure(cs qpipnic.ChecksumMode, udp bool, iters int) float64 {
	c := qpip.NewCluster(2, core.NodeConfig{QPIP: true, QPIPChecksum: cs})
	var rttUS float64
	total := iters + 1

	if udp {
		c.SpawnOn(1, "server", func(p *qpip.Proc) {
			qp, _, rcq, err := qpip.NewUnreliableQP(c.Nodes[1], 2*total)
			if err != nil {
				log.Fatal(err)
			}
			if _, err := qp.BindUDP(9001); err != nil {
				log.Fatal(err)
			}
			for i := 0; i < total; i++ {
				qp.PostRecv(p, qpip.RecvWR{ID: uint64(i), Capacity: 64})
			}
			for i := 0; i < total; i++ {
				comp := rcq.Wait(p)
				qp.PostSend(p, qpip.SendWR{
					ID: uint64(i), Payload: qpip.VirtualMessage(1),
					RemoteAddr: comp.RemoteAddr, RemotePort: comp.RemotePort,
				})
			}
		})
		c.SpawnOn(0, "client", func(p *qpip.Proc) {
			qp, _, rcq, err := qpip.NewUnreliableQP(c.Nodes[0], 2*total)
			if err != nil {
				log.Fatal(err)
			}
			if _, err := qp.BindUDP(9002); err != nil {
				log.Fatal(err)
			}
			for i := 0; i < total; i++ {
				qp.PostRecv(p, qpip.RecvWR{ID: uint64(i), Capacity: 64})
			}
			ping := func(i int) {
				qp.PostSend(p, qpip.SendWR{
					ID: uint64(i), Payload: qpip.VirtualMessage(1),
					RemoteAddr: c.Nodes[1].Addr6, RemotePort: 9001,
				})
				rcq.Wait(p)
			}
			ping(0) // warmup
			start := p.Now()
			for i := 1; i <= iters; i++ {
				ping(i)
			}
			rttUS = (p.Now() - start).Micros() / float64(iters)
		})
		c.Run()
		return rttUS
	}

	c.SpawnOn(1, "server", func(p *qpip.Proc) {
		qp, _, rcq, err := qpip.NewReliableQP(c.Nodes[1], 2*total)
		if err != nil {
			log.Fatal(err)
		}
		lst, err := c.Nodes[1].QPIP.Listen(9000)
		if err != nil {
			log.Fatal(err)
		}
		lst.Post(qp)
		if err := qp.WaitEstablished(p); err != nil {
			log.Fatal(err)
		}
		for i := 0; i < total; i++ {
			qp.PostRecv(p, qpip.RecvWR{ID: uint64(i), Capacity: 64})
		}
		for i := 0; i < total; i++ {
			rcq.Wait(p)
			qp.PostSend(p, qpip.SendWR{ID: uint64(i), Payload: qpip.VirtualMessage(1)})
		}
	})
	c.SpawnOn(0, "client", func(p *qpip.Proc) {
		qp, scq, rcq, err := qpip.NewReliableQP(c.Nodes[0], 2*total)
		if err != nil {
			log.Fatal(err)
		}
		if err := qp.Connect(p, c.Nodes[1].Addr6, 9000); err != nil {
			log.Fatal(err)
		}
		for i := 0; i < total; i++ {
			qp.PostRecv(p, qpip.RecvWR{ID: uint64(i), Capacity: 64})
		}
		ping := func(i int) {
			qp.PostSend(p, qpip.SendWR{ID: uint64(i), Payload: qpip.VirtualMessage(1)})
			rcq.Wait(p)
			scq.Wait(p)
		}
		ping(0) // warmup
		start := p.Now()
		for i := 1; i <= iters; i++ {
			ping(i)
		}
		rttUS = (p.Now() - start).Micros() / float64(iters)
	})
	c.Run()
	return rttUS
}

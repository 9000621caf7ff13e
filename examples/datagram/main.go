// Datagram demonstrates unreliable (UDP) queue pairs and CQ multiplexing:
// several sender nodes fire datagrams at one collector, whose single
// receive CQ aggregates completions from the shared unreliable QP —
// "the binding of multiple queues to a CQ permits applications to group
// related QPs into a single monitoring point" (paper §2.1). It also shows
// UDP's unreliable contract: datagrams arriving with no posted receive WR
// are dropped and counted.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/qpip"
)

func main() {
	senders := flag.Int("senders", 3, "number of sender nodes")
	msgs := flag.Int("msgs", 50, "datagrams per sender")
	flag.Parse()

	c := qpip.NewCluster(*senders+1, core.NodeConfig{QPIP: true})
	collector := c.Nodes[0]
	const port = 5353

	received := map[string]int{}
	c.SpawnOn(0, "collector", func(p *qpip.Proc) {
		qp, _, rcq, err := qpip.NewUnreliableQP(collector, 4096)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := qp.BindUDP(port); err != nil {
			log.Fatal(err)
		}
		// Deliberately post fewer buffers than the total offered load:
		// the excess is dropped, as UDP promises nothing.
		posted := *senders * *msgs * 3 / 4
		for i := 0; i < posted; i++ {
			if err := qp.PostRecv(p, qpip.RecvWR{ID: uint64(i), Capacity: 256}); err != nil {
				log.Fatal(err)
			}
		}
		for i := 0; i < posted; i++ {
			comp := rcq.Wait(p)
			received[comp.RemoteAddr.String()]++
		}
	})

	for s := 1; s <= *senders; s++ {
		s := s
		c.SpawnOn(s, fmt.Sprintf("sender%d", s), func(p *qpip.Proc) {
			qp, scq, _, err := qpip.NewUnreliableQP(c.Nodes[s], 256)
			if err != nil {
				log.Fatal(err)
			}
			if _, err := qp.BindUDP(0); err != nil {
				log.Fatal(err)
			}
			for i := 0; i < *msgs; i++ {
				err := qp.PostSend(p, qpip.SendWR{
					ID:         uint64(i),
					Payload:    qpip.Message([]byte(fmt.Sprintf("sender %d msg %d", s, i))),
					RemoteAddr: collector.Addr6,
					RemotePort: port,
				})
				if err != nil {
					log.Fatal(err)
				}
				scq.Wait(p) // UDP sends complete as soon as transmitted
			}
		})
	}

	c.RunFor(2 * 1e9) // 2 simulated seconds is ample

	fmt.Printf("offered: %d datagrams from %d senders\n", *senders**msgs, *senders)
	total := 0
	for addr, n := range received {
		fmt.Printf("  from %-22s %4d received\n", addr, n)
		total += n
	}
	drops := collector.QPIP.Net.Get("rx.drop.no-wr")
	fmt.Printf("received %d, dropped for lack of receive WRs: %d\n", total, drops)
}

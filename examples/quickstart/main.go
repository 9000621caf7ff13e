// Quickstart: the smallest complete QPIP program. Two simulated nodes on
// a Myrinet fabric; the server parks an idle QP on a listening TCP port,
// the client connects, sends one reliable message, and both sides reap
// completions — the queue pair interface of paper §3 end to end.
package main

import (
	"fmt"
	"log"

	"repro/qpip"
)

func main() {
	c := qpip.NewQPIPCluster(2)

	// Server: create a QP, park it on a monitored TCP port, post a
	// receive buffer, and wait for the message.
	c.SpawnOn(1, "server", func(p *qpip.Proc) {
		qp, _, rcq, err := qpip.NewReliableQP(c.Nodes[1], 64)
		if err != nil {
			log.Fatal(err)
		}
		lst, err := c.Nodes[1].QPIP.Listen(7000)
		if err != nil {
			log.Fatal(err)
		}
		if err := lst.Post(qp); err != nil {
			log.Fatal(err)
		}
		if err := qp.WaitEstablished(p); err != nil {
			log.Fatal(err)
		}
		// Post receive space; this is also what opens the connection's
		// TCP receive window.
		if err := qp.PostRecv(p, qpip.RecvWR{ID: 1, Capacity: 4096}); err != nil {
			log.Fatal(err)
		}
		comp := rcq.Wait(p)
		fmt.Printf("[%8v] server: received %d bytes: %q\n",
			p.Now(), comp.ByteLen, string(comp.Payload.Data()))
	})

	// Client: connect (the SYN/ACK rendezvous runs entirely inside the
	// adapters), send, and wait for the send completion — which fires
	// when the peer's TCP acknowledged the whole message.
	c.SpawnOn(0, "client", func(p *qpip.Proc) {
		qp, scq, _, err := qpip.NewReliableQP(c.Nodes[0], 64)
		if err != nil {
			log.Fatal(err)
		}
		if err := qp.Connect(p, c.Nodes[1].Addr6, 7000); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("[%8v] client: connected to %v:7000\n", p.Now(), c.Nodes[1].Addr6)
		msg := qpip.Message([]byte("hello, queue pair IP"))
		if err := qp.PostSend(p, qpip.SendWR{ID: 1, Payload: msg}); err != nil {
			log.Fatal(err)
		}
		comp := scq.Wait(p)
		fmt.Printf("[%8v] client: send completion, status=%v\n", p.Now(), comp.Status)
	})

	c.Run()
	fmt.Printf("simulation finished at %v\n", c.EndTime())
}

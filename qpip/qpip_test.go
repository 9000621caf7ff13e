package qpip_test

import (
	"testing"

	"repro/qpip"
)

// The facade's quickstart flow: a reliable message end to end, entirely
// through the public API.
func TestPublicAPIQuickstart(t *testing.T) {
	c := qpip.NewQPIPCluster(2)
	var got []byte
	var sendStatus qpip.Completion

	c.SpawnOn(1, "server", func(p *qpip.Proc) {
		qp, _, rcq, err := qpip.NewReliableQP(c.Nodes[1], 64)
		if err != nil {
			t.Errorf("NewReliableQP: %v", err)
			return
		}
		lst, err := c.Nodes[1].QPIP.Listen(7000)
		if err != nil {
			t.Errorf("Listen: %v", err)
			return
		}
		if err := lst.Post(qp); err != nil {
			t.Errorf("Post: %v", err)
			return
		}
		if err := qp.WaitEstablished(p); err != nil {
			t.Errorf("establish: %v", err)
			return
		}
		if err := qp.PostRecv(p, qpip.RecvWR{ID: 1, Capacity: 4096}); err != nil {
			t.Errorf("PostRecv: %v", err)
			return
		}
		comp := rcq.Wait(p)
		got = comp.Payload.Data()
	})
	c.SpawnOn(0, "client", func(p *qpip.Proc) {
		qp, scq, _, err := qpip.NewReliableQP(c.Nodes[0], 64)
		if err != nil {
			t.Errorf("NewReliableQP: %v", err)
			return
		}
		if err := qp.Connect(p, c.Nodes[1].Addr6, 7000); err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		if err := qp.PostSend(p, qpip.SendWR{ID: 1, Payload: qpip.Message([]byte("hello"))}); err != nil {
			t.Errorf("PostSend: %v", err)
			return
		}
		sendStatus = scq.Wait(p)
	})
	c.Run()
	if string(got) != "hello" {
		t.Fatalf("received %q", got)
	}
	if sendStatus.Status != qpip.StatusSuccess {
		t.Fatalf("send status %v", sendStatus.Status)
	}
}

func TestVirtualMessageAndAddrs(t *testing.T) {
	if qpip.VirtualMessage(100).Len() != 100 {
		t.Error("VirtualMessage length")
	}
	if qpip.NodeAddr6(0) == qpip.NodeAddr6(1) {
		t.Error("node addresses collide")
	}
	if qpip.NodeAddr4(0) == qpip.NodeAddr4(1) {
		t.Error("node v4 addresses collide")
	}
}

func TestUnreliableQPOnFacade(t *testing.T) {
	c := qpip.NewQPIPCluster(2)
	var got qpip.Completion
	c.SpawnOn(1, "recv", func(p *qpip.Proc) {
		qp, _, rcq, err := qpip.NewUnreliableQP(c.Nodes[1], 16)
		if err != nil {
			t.Errorf("NewUnreliableQP: %v", err)
			return
		}
		if _, err := qp.BindUDP(6000); err != nil {
			t.Errorf("BindUDP: %v", err)
			return
		}
		qp.PostRecv(p, qpip.RecvWR{ID: 1, Capacity: 128})
		got = rcq.Wait(p)
	})
	c.SpawnOn(0, "send", func(p *qpip.Proc) {
		qp, scq, _, err := qpip.NewUnreliableQP(c.Nodes[0], 16)
		if err != nil {
			t.Errorf("NewUnreliableQP: %v", err)
			return
		}
		if _, err := qp.BindUDP(0); err != nil {
			t.Errorf("BindUDP: %v", err)
			return
		}
		qp.PostSend(p, qpip.SendWR{
			ID: 1, Payload: qpip.Message([]byte("dgram")),
			RemoteAddr: c.Nodes[1].Addr6, RemotePort: 6000,
		})
		scq.Wait(p)
	})
	c.Run()
	if string(got.Payload.Data()) != "dgram" {
		t.Fatalf("received %q", got.Payload.Data())
	}
}

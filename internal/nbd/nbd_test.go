package nbd_test

import (
	"fmt"
	"testing"

	"repro/internal/buf"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hostos"
	"repro/internal/nbd"
	"repro/internal/params"
	"repro/internal/qpipnic"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/verbs"
)

const (
	diskSize  = 64 << 20
	nbdPort   = 10809
	testBytes = 2 << 20
)

func TestProtoRoundTrip(t *testing.T) {
	req := nbd.Request{Type: nbd.CmdWrite, Handle: 0xdeadbeef, Offset: 123456, Length: 65536}
	got, err := nbd.ParseRequest(buf.Bytes(nbd.MarshalRequest(&req)))
	if err != nil {
		t.Fatal(err)
	}
	if got != req {
		t.Errorf("request round trip: %+v vs %+v", got, req)
	}
	rep := nbd.Reply{Error: 5, Handle: 99}
	gotRep, err := nbd.ParseReply(buf.Bytes(nbd.MarshalReply(&rep)))
	if err != nil {
		t.Fatal(err)
	}
	if gotRep != rep {
		t.Errorf("reply round trip: %+v vs %+v", gotRep, rep)
	}
	if _, err := nbd.ParseRequest(buf.Bytes(make([]byte, 28))); err == nil {
		t.Error("zero magic accepted")
	}
	if _, err := nbd.ParseReply(buf.Bytes([]byte{1})); err == nil {
		t.Error("short reply accepted")
	}
}

// sockSetup builds a sockets NBD pair over the given cluster (node 0 is
// the client, node 1 runs the server and disk) and runs fn as the client
// application with a mounted filesystem.
func sockSetup(t *testing.T, c *core.Cluster, fn func(p *sim.Proc, fs *storage.FS)) {
	t.Helper()
	disk := storage.NewDisk(c.EngineOf(1), "server.disk", diskSize)
	c.SpawnOn(1, "nbd-server", func(p *sim.Proc) {
		lst := c.Nodes[1].Kernel.NewSocket(hostos.TCPSock)
		if err := lst.Listen(nbdPort, 4); err != nil {
			t.Errorf("Listen: %v", err)
			return
		}
		s := lst.Accept(p)
		s.SetNoDelay(true)
		s.SetSndBuf(256 * 1024)
		nbd.ServeSock(p, c.Nodes[1].CPU, s, disk)
	})
	c.SpawnOn(0, "nbd-client", func(p *sim.Proc) {
		s := c.Nodes[0].Kernel.NewSocket(hostos.TCPSock)
		s.SetNoDelay(true)
		s.SetSndBuf(256 * 1024)
		if err := s.Connect(p, c.Nodes[1].Addr4, nbdPort); err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		cli := nbd.NewSockClient(p, c.Nodes[0].CPU, s, diskSize, params.NBDQueueDepth)
		fs := storage.NewFS(cli, c.Nodes[0].CPU, 4<<20)
		fn(p, fs)
	})
	c.Run()
}

// qpSetup builds a QPIP NBD pair (9000 B MTU per the paper's NBD runs).
func qpSetup(t *testing.T, fn func(p *sim.Proc, fs *storage.FS)) *core.Cluster {
	t.Helper()
	c := core.NewCluster(2, core.NodeConfig{QPIP: true, QPIPMTU: params.MTUJumbo})
	disk := storage.NewDisk(c.EngineOf(1), "server.disk", diskSize)
	maxMsg := c.Nodes[0].QPIP.MaxMessage()

	c.SpawnOn(1, "nbd-server", func(p *sim.Proc) {
		scq := verbs.NewCQ(c.Nodes[1].QPIP, 512)
		rcq := verbs.NewCQ(c.Nodes[1].QPIP, 512)
		qp, err := verbs.NewQP(c.Nodes[1].QPIP, verbs.QPConfig{
			Transport: verbs.Reliable, SendCQ: scq, RecvCQ: rcq,
			SendDepth: 256, RecvDepth: 256,
		})
		if err != nil {
			t.Errorf("server NewQP: %v", err)
			return
		}
		lst, err := c.Nodes[1].QPIP.Listen(nbdPort)
		if err != nil {
			t.Errorf("Listen: %v", err)
			return
		}
		if err := lst.Post(qp); err != nil {
			t.Errorf("Post: %v", err)
			return
		}
		if err := qp.WaitEstablished(p); err != nil {
			t.Errorf("server establish: %v", err)
			return
		}
		nbd.ServeQP(p, c.Nodes[1].CPU, qp, scq, rcq, maxMsg, disk)
	})
	c.SpawnOn(0, "nbd-client", func(p *sim.Proc) {
		scq := verbs.NewCQ(c.Nodes[0].QPIP, 512)
		rcq := verbs.NewCQ(c.Nodes[0].QPIP, 512)
		qp, err := verbs.NewQP(c.Nodes[0].QPIP, verbs.QPConfig{
			Transport: verbs.Reliable, SendCQ: scq, RecvCQ: rcq,
			SendDepth: 256, RecvDepth: 256,
		})
		if err != nil {
			t.Errorf("client NewQP: %v", err)
			return
		}
		if err := qp.Connect(p, c.Nodes[1].Addr6, nbdPort); err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		cli := nbd.NewQPClient(p, c.Nodes[0].CPU, qp, scq, rcq, maxMsg, diskSize, params.NBDQueueDepth, nil)
		fs := storage.NewFS(cli, c.Nodes[0].CPU, 4<<20)
		fn(p, fs)
	})
	c.Run()
	return c
}

func writeReadCheck(t *testing.T) func(p *sim.Proc, fs *storage.FS) {
	return func(p *sim.Proc, fs *storage.FS) {
		want := buf.Pattern(256*1024, 7)
		if err := fs.WriteAt(p, 0, want); err != nil {
			t.Errorf("WriteAt: %v", err)
			return
		}
		if err := fs.Sync(p); err != nil {
			t.Errorf("Sync: %v", err)
			return
		}
		fs.Invalidate()
		got, err := fs.ReadAt(p, 0, want.Len())
		if err != nil {
			t.Errorf("ReadAt: %v", err)
			return
		}
		if !buf.Equal(got, want) {
			t.Error("data corrupted through NBD")
		}
	}
}

func TestNBDSocketsGigERoundTrip(t *testing.T) {
	c := core.NewCluster(2, core.NodeConfig{GigE: true})
	sockSetup(t, c, writeReadCheck(t))
}

func TestNBDSocketsGMRoundTrip(t *testing.T) {
	c := core.NewCluster(2, core.NodeConfig{GM: true})
	sockSetup(t, c, writeReadCheck(t))
}

func TestNBDQPRoundTrip(t *testing.T) {
	qpSetup(t, writeReadCheck(t))
}

// seqRead measures sequential read throughput after a priming write.
func seqRead(t *testing.T, run func(*testing.T, func(p *sim.Proc, fs *storage.FS))) (mbps float64) {
	t.Helper()
	run(t, func(p *sim.Proc, fs *storage.FS) {
		if err := fs.WriteAt(p, 0, buf.Virtual(testBytes)); err != nil {
			t.Errorf("prime write: %v", err)
			return
		}
		if err := fs.Sync(p); err != nil {
			t.Errorf("sync: %v", err)
			return
		}
		fs.Invalidate()
		start := p.Now()
		if _, err := fs.ReadAt(p, 0, testBytes); err != nil {
			t.Errorf("read: %v", err)
			return
		}
		mbps = float64(testBytes) / 1e6 / (p.Now() - start).Seconds()
	})
	return mbps
}

func TestNBDQPFasterThanSockets(t *testing.T) {
	gige := seqRead(t, func(t *testing.T, fn func(p *sim.Proc, fs *storage.FS)) {
		sockSetup(t, core.NewCluster(2, core.NodeConfig{GigE: true}), fn)
	})
	qp := seqRead(t, func(t *testing.T, fn func(p *sim.Proc, fs *storage.FS)) {
		qpSetup(t, fn)
	})
	t.Logf("NBD sequential read: IP/GigE %.1f MB/s, QPIP %.1f MB/s", gige, qp)
	if qp <= gige {
		t.Errorf("QPIP NBD (%.1f MB/s) not faster than sockets/GigE (%.1f MB/s)", qp, gige)
	}
	// Paper Figure 7: 40%-137% throughput improvement.
	if qp < 1.2*gige {
		t.Errorf("QPIP advantage only %.0f%%, expected >20%%", (qp/gige-1)*100)
	}
}

func TestNBDReadaheadEngages(t *testing.T) {
	c := core.NewCluster(2, core.NodeConfig{GigE: true})
	disk := storage.NewDisk(c.EngineOf(1), "server.disk", diskSize)
	var cli *nbd.SockClient
	c.SpawnOn(1, "nbd-server", func(p *sim.Proc) {
		lst := c.Nodes[1].Kernel.NewSocket(hostos.TCPSock)
		lst.Listen(nbdPort, 4)
		s := lst.Accept(p)
		s.SetSndBuf(256 * 1024)
		nbd.ServeSock(p, c.Nodes[1].CPU, s, disk)
	})
	c.SpawnOn(0, "nbd-client", func(p *sim.Proc) {
		s := c.Nodes[0].Kernel.NewSocket(hostos.TCPSock)
		s.SetNoDelay(true)
		if err := s.Connect(p, c.Nodes[1].Addr4, nbdPort); err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		cli = nbd.NewSockClient(p, c.Nodes[0].CPU, s, diskSize, 8)
		fs := storage.NewFS(cli, c.Nodes[0].CPU, 4<<20)
		fs.ReadAt(p, 0, 1<<20)
	})
	c.Run()
	_, _, ra := cli.Stats()
	if ra == 0 {
		t.Error("sequential read issued no readahead")
	}
}

func TestQPChecksumModeStillCorrect(t *testing.T) {
	// Firmware checksum path must not corrupt data, only slow it down.
	c := core.NewCluster(2, core.NodeConfig{
		QPIP: true, QPIPMTU: params.MTUJumbo, QPIPChecksum: qpipnic.ChecksumFirmware,
	})
	disk := storage.NewDisk(c.EngineOf(1), "server.disk", diskSize)
	maxMsg := c.Nodes[0].QPIP.MaxMessage()
	c.SpawnOn(1, "nbd-server", func(p *sim.Proc) {
		scq := verbs.NewCQ(c.Nodes[1].QPIP, 512)
		rcq := verbs.NewCQ(c.Nodes[1].QPIP, 512)
		qp, _ := verbs.NewQP(c.Nodes[1].QPIP, verbs.QPConfig{
			Transport: verbs.Reliable, SendCQ: scq, RecvCQ: rcq, SendDepth: 256, RecvDepth: 256,
		})
		lst, _ := c.Nodes[1].QPIP.Listen(nbdPort)
		lst.Post(qp)
		if err := qp.WaitEstablished(p); err != nil {
			t.Errorf("establish: %v", err)
			return
		}
		nbd.ServeQP(p, c.Nodes[1].CPU, qp, scq, rcq, maxMsg, disk)
	})
	c.SpawnOn(0, "nbd-client", func(p *sim.Proc) {
		scq := verbs.NewCQ(c.Nodes[0].QPIP, 512)
		rcq := verbs.NewCQ(c.Nodes[0].QPIP, 512)
		qp, _ := verbs.NewQP(c.Nodes[0].QPIP, verbs.QPConfig{
			Transport: verbs.Reliable, SendCQ: scq, RecvCQ: rcq, SendDepth: 256, RecvDepth: 256,
		})
		if err := qp.Connect(p, c.Nodes[1].Addr6, nbdPort); err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		cli := nbd.NewQPClient(p, c.Nodes[0].CPU, qp, scq, rcq, maxMsg, diskSize, 4, nil)
		fs := storage.NewFS(cli, c.Nodes[0].CPU, 1<<20)
		writeReadCheck(t)(p, fs)
	})
	c.Run()
}

// TestQPClientFailsWhenServerLost drives the plain (non-recovering) QP
// client into its terminal state: the server's adapter crashes for good
// after the session is up, the client's TCP gives up on its retry
// budget, and the device is poisoned. Every request outstanding at that
// point returns an error, a later call fails at once without blocking,
// and the run drains.
func TestQPClientFailsWhenServerLost(t *testing.T) {
	const crashAt, block = 10 * sim.Millisecond, 4096
	c := core.NewCluster(2, core.NodeConfig{QPIP: true, QPIPMTU: params.MTUJumbo})
	disk := storage.NewDisk(c.EngineOf(1), "server.disk", diskSize)
	maxMsg := c.Nodes[0].QPIP.MaxMessage()
	c.InjectFaults(fault.Plan{Crashes: []fault.Crash{{Node: 1, At: crashAt, Down: 1 << 62}}})

	c.SpawnOn(1, "nbd-server", func(p *sim.Proc) {
		scq := verbs.NewCQ(c.Nodes[1].QPIP, 512)
		rcq := verbs.NewCQ(c.Nodes[1].QPIP, 512)
		qp, _ := verbs.NewQP(c.Nodes[1].QPIP, verbs.QPConfig{
			Transport: verbs.Reliable, SendCQ: scq, RecvCQ: rcq, SendDepth: 256, RecvDepth: 256,
		})
		lst, _ := c.Nodes[1].QPIP.Listen(nbdPort)
		lst.Post(qp)
		if err := qp.WaitEstablished(p); err != nil {
			t.Errorf("establish: %v", err)
			return
		}
		nbd.ServeQP(p, c.Nodes[1].CPU, qp, scq, rcq, maxMsg, disk)
	})

	// Each outstanding call records when it returned and with what.
	type result struct {
		call string
		at   sim.Time
		err  error
	}
	var results []result
	record := func(p *sim.Proc, call string, err error) {
		results = append(results, result{call, p.Now(), err})
	}
	var later []result
	c.SpawnOn(0, "nbd-client", func(p *sim.Proc) {
		scq := verbs.NewCQ(c.Nodes[0].QPIP, 512)
		rcq := verbs.NewCQ(c.Nodes[0].QPIP, 512)
		qp, _ := verbs.NewQP(c.Nodes[0].QPIP, verbs.QPConfig{
			Transport: verbs.Reliable, SendCQ: scq, RecvCQ: rcq, SendDepth: 256, RecvDepth: 256,
		})
		if err := qp.Connect(p, c.Nodes[1].Addr6, nbdPort); err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		cli := nbd.NewQPClient(p, c.Nodes[0].CPU, qp, scq, rcq, maxMsg, diskSize, 2, nil)
		p.Sleep(crashAt + sim.Millisecond - p.Now())

		// Two readers, a writer past the queue depth of 2 (its third
		// Write blocks on the queue) and a flusher, all outstanding when
		// the session dies.
		for i := 0; i < 2; i++ {
			off := int64(i) * (1 << 20)
			c.SpawnOn(0, fmt.Sprintf("reader%d", i), func(p *sim.Proc) {
				_, err := cli.Read(p, off, block)
				record(p, "Read", err)
			})
		}
		c.SpawnOn(0, "writer", func(p *sim.Proc) {
			for i := 0; i < 3; i++ {
				if err := cli.Write(p, int64(4<<20+i*block), buf.Virtual(block)); err != nil {
					record(p, "Write", err)
					return
				}
			}
			t.Error("third Write returned without blocking on the queue depth")
		})
		c.SpawnOn(0, "flusher", func(p *sim.Proc) {
			p.Sleep(sim.Millisecond) // after the writer has queued its writes
			record(p, "Flush", cli.Flush(p))
		})

		for len(results) < 4 {
			p.Sleep(sim.Second)
		}
		now := p.Now()
		_, err := cli.Read(p, 0, block)
		later = append(later, result{"Read", p.Now() - now, err})
		err = cli.Write(p, 0, buf.Virtual(block))
		later = append(later, result{"Write", p.Now() - now, err})
	})
	c.Run() // must drain: a poisoned device leaves no process spinning

	if len(results) != 4 {
		t.Fatalf("%d of 4 outstanding calls returned: %+v", len(results), results)
	}
	for _, r := range results {
		if r.err == nil {
			t.Errorf("outstanding %s succeeded against a dead server", r.call)
		}
		if r.at != results[0].at || r.at <= crashAt {
			t.Errorf("outstanding %s failed at %v; want all at one instant after the crash (%v)", r.call, r.at, crashAt)
		}
	}
	if len(later) != 2 {
		t.Fatalf("later calls: %+v", later)
	}
	for _, r := range later {
		if r.err == nil || r.at != 0 {
			t.Errorf("%s after the failure: err %v after %v; want an error at once", r.call, r.err, r.at)
		}
	}
}

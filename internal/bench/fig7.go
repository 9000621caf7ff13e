package bench

import (
	"repro/internal/buf"
	"repro/internal/core"
	"repro/internal/hostos"
	"repro/internal/nbd"
	"repro/internal/params"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/verbs"
)

// ---- Figure 7: NBD client throughput and CPU effectiveness. ----

// NBDRow is one stack's bars in Figure 7.
type NBDRow struct {
	Stack     string
	WriteMBps float64
	ReadMBps  float64
	// CPU effectiveness in MB transferred per CPU-second on the client
	// (the paper's "MB/CPU·s").
	WriteEff float64
	ReadEff  float64
	// Client CPU utilization during each phase (the >=26% filesystem
	// floor shows here).
	WriteCPU, ReadCPU float64
}

// nbdPhases runs the benchmark phases on a mounted FS: sequential write
// of total bytes + sync, invalidate, sequential read (paper §4.2.3).
func nbdPhases(p *sim.Proc, fs *storage.FS, cpu *sim.CPU, total int, row *NBDRow) {
	const chunk = 256 * 1024 // application write()/read() size
	// Write phase.
	start, busy0 := p.Now(), cpu.BusyTotal()
	for off := 0; off < total; off += chunk {
		if err := fs.WriteAt(p, int64(off), buf.Virtual(chunk)); err != nil {
			panic(err)
		}
	}
	if err := fs.Sync(p); err != nil {
		panic(err)
	}
	wDur, wBusy := p.Now()-start, cpu.BusyTotal()-busy0
	row.WriteMBps = float64(total) / 1e6 / wDur.Seconds()
	row.WriteCPU = float64(wBusy) / float64(wDur)
	row.WriteEff = float64(total) / 1e6 / wBusy.Seconds()

	// Unmount between phases to invalidate the client cache.
	fs.Invalidate()

	// Read phase.
	start, busy0 = p.Now(), cpu.BusyTotal()
	for off := 0; off < total; off += chunk {
		if _, err := fs.ReadAt(p, int64(off), chunk); err != nil {
			panic(err)
		}
	}
	rDur, rBusy := p.Now()-start, cpu.BusyTotal()-busy0
	row.ReadMBps = float64(total) / 1e6 / rDur.Seconds()
	row.ReadCPU = float64(rBusy) / float64(rDur)
	row.ReadEff = float64(total) / 1e6 / rBusy.Seconds()
}

// nbdSockRun measures one sockets-based stack.
func nbdSockRun(kind StackKind, total int) NBDRow {
	c := core.NewCluster(2, kind.hostConfig())
	diskSize := int64(total) + (64 << 20)
	disk := storage.NewDisk(c.EngineOf(1), "server.disk", diskSize)
	row := NBDRow{Stack: kind.String()}
	c.SpawnOn(1, "nbd-server", func(p *sim.Proc) {
		lst := c.Nodes[1].Kernel.NewSocket(hostos.TCPSock)
		if err := lst.Listen(10809, 4); err != nil {
			panic(err)
		}
		s := lst.Accept(p)
		s.SetNoDelay(true)
		s.SetSndBuf(512 * 1024)
		nbd.ServeSock(p, c.Nodes[1].CPU, s, disk)
	})
	c.SpawnOn(0, "nbd-client", func(p *sim.Proc) {
		s := c.Nodes[0].Kernel.NewSocket(hostos.TCPSock)
		s.SetNoDelay(true)
		s.SetSndBuf(512 * 1024)
		if err := s.Connect(p, c.Nodes[1].Addr4, 10809); err != nil {
			panic(err)
		}
		cli := nbd.NewSockClient(p, c.Nodes[0].CPU, s, diskSize, params.NBDQueueDepth)
		fs := storage.NewFS(cli, c.Nodes[0].CPU, 8<<20)
		nbdPhases(p, fs, c.Nodes[0].CPU, total, &row)
	})
	c.Run()
	return row
}

// nbdQPIPRun measures the QPIP stack at the 9000 B MTU the paper used
// for its NBD runs.
func nbdQPIPRun(total int, prep ...func(*core.Cluster)) NBDRow {
	c := prepared(core.NewCluster(2, core.NodeConfig{QPIP: true, QPIPMTU: params.MTUJumbo}), prep)
	diskSize := int64(total) + (64 << 20)
	disk := storage.NewDisk(c.EngineOf(1), "server.disk", diskSize)
	maxMsg := c.Nodes[0].QPIP.MaxMessage()
	row := NBDRow{Stack: "QPIP"}
	c.SpawnOn(1, "nbd-server", func(p *sim.Proc) {
		qp, scq, rcq := newQP(c.Nodes[1], verbs.Reliable, 512)
		lst, err := c.Nodes[1].QPIP.Listen(10809)
		if err != nil {
			panic(err)
		}
		lst.Post(qp)
		if err := qp.WaitEstablished(p); err != nil {
			panic(err)
		}
		nbd.ServeQP(p, c.Nodes[1].CPU, qp, scq, rcq, maxMsg, disk)
	})
	c.SpawnOn(0, "nbd-client", func(p *sim.Proc) {
		qp, scq, rcq := newQP(c.Nodes[0], verbs.Reliable, 512)
		if err := qp.Connect(p, c.Nodes[1].Addr6, 10809); err != nil {
			panic(err)
		}
		cli := nbd.NewQPClient(p, c.Nodes[0].CPU, qp, scq, rcq, maxMsg, diskSize, params.NBDQueueDepth, nil)
		fs := storage.NewFS(cli, c.Nodes[0].CPU, 8<<20)
		nbdPhases(p, fs, c.Nodes[0].CPU, total, &row)
	})
	c.Run()
	return row
}

// Figure7 runs the NBD benchmark on all three stacks. totalBytes <= 0
// selects the paper's 409 MB.
func Figure7(totalBytes int) []NBDRow {
	if totalBytes <= 0 {
		totalBytes = 409 << 20
	}
	rows := make([]NBDRow, 3)
	sweep(len(rows), func(i int) {
		switch i {
		case 0:
			rows[i] = nbdSockRun(IPGigE, totalBytes)
		case 1:
			rows[i] = nbdSockRun(IPMyrinet, totalBytes)
		case 2:
			rows[i] = nbdQPIPRun(totalBytes)
		}
	})
	return rows
}

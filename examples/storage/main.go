// Storage runs the paper's Network Block Device scenario (§4.2.3, Figure
// 6) on the public API: an ext2-lite filesystem on the client, mounted on
// an NBD device whose requests travel over a reliable QP to a server with
// a simulated disk. It writes a file, syncs, drops the cache, reads it
// back, and reports throughput and client CPU cost for each phase.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/nbd"
	"repro/internal/params"
	"repro/internal/storage"
	"repro/qpip"
)

func main() {
	mb := flag.Int("mb", 64, "megabytes to write and read back")
	flag.Parse()
	total := *mb << 20

	c := qpip.NewCluster(2, core.NodeConfig{QPIP: true, QPIPMTU: params.MTUJumbo})
	diskSize := int64(total) + (64 << 20)
	disk := storage.NewDisk(c.EngineOf(1), "server.disk", diskSize)
	maxMsg := c.Nodes[0].QPIP.MaxMessage()

	c.SpawnOn(1, "nbd-server", func(p *qpip.Proc) {
		qp, scq, rcq, err := qpip.NewReliableQP(c.Nodes[1], 512)
		if err != nil {
			log.Fatal(err)
		}
		lst, err := c.Nodes[1].QPIP.Listen(10809)
		if err != nil {
			log.Fatal(err)
		}
		lst.Post(qp)
		if err := qp.WaitEstablished(p); err != nil {
			log.Fatal(err)
		}
		nbd.ServeQP(p, c.Nodes[1].CPU, qp, scq, rcq, maxMsg, disk)
	})

	c.SpawnOn(0, "client", func(p *qpip.Proc) {
		qp, scq, rcq, err := qpip.NewReliableQP(c.Nodes[0], 512)
		if err != nil {
			log.Fatal(err)
		}
		if err := qp.Connect(p, c.Nodes[1].Addr6, 10809); err != nil {
			log.Fatal(err)
		}
		cli := nbd.NewQPClient(p, c.Nodes[0].CPU, qp, scq, rcq, maxMsg, diskSize, params.NBDQueueDepth, nil)
		fs := storage.NewFS(cli, c.Nodes[0].CPU, 8<<20)

		const chunk = 256 * 1024
		cpu := c.Nodes[0].CPU

		start, busy0 := p.Now(), cpu.BusyTotal()
		for off := 0; off < total; off += chunk {
			if err := fs.WriteAt(p, int64(off), qpip.VirtualMessage(chunk)); err != nil {
				log.Fatal(err)
			}
		}
		if err := fs.Sync(p); err != nil {
			log.Fatal(err)
		}
		report("write+sync", total, p.Now()-start, cpu.BusyTotal()-busy0)

		fs.Invalidate() // unmount between phases, as the paper does

		start, busy0 = p.Now(), cpu.BusyTotal()
		for off := 0; off < total; off += chunk {
			if _, err := fs.ReadAt(p, int64(off), chunk); err != nil {
				log.Fatal(err)
			}
		}
		report("read", total, p.Now()-start, cpu.BusyTotal()-busy0)
	})

	c.Run()
}

func report(phase string, bytes int, dur, busy qpip.Time) {
	mbps := float64(bytes) / 1e6 / dur.Seconds()
	eff := float64(bytes) / 1e6 / busy.Seconds()
	fmt.Printf("%-10s %7.1f MB/s   client CPU %4.0f%%   %6.1f MB per CPU-second\n",
		phase, mbps, float64(busy)/float64(dur)*100, eff)
}

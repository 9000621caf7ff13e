// Package storage provides the storage substrate of the paper's Network
// Block Device experiment (§4.2.3): a streaming disk model, a client-side
// buffer cache, and an ext2-lite filesystem cost model. The disk and
// filesystem layers are identical across the three network stacks, so
// Figure 7's relative results isolate the stacks themselves.
package storage

import (
	"fmt"

	"repro/internal/buf"
	"repro/internal/params"
	"repro/internal/sim"
)

// Disk is a simple mechanical disk: sequential streaming at DiskBandwidth
// with a positioning cost whenever access is discontiguous. Requests
// serialize, as on a single spindle. Written content is retained so
// integrity tests can read it back.
type Disk struct {
	eng       *sim.Engine
	srv       *sim.Server
	size      int64
	bandwidth float64
	seek      sim.Time
	lastEnd   int64

	// content holds written data in fixed chunks keyed by chunk-aligned
	// offset (benchmarks write virtual buffers, so this stays small).
	content map[int64]buf.Buf

	reads, writes, seeks    uint64
	bytesRead, bytesWritten uint64
}

// NewDisk creates a disk of the given size.
func NewDisk(eng *sim.Engine, name string, size int64) *Disk {
	return &Disk{
		eng:       eng,
		srv:       sim.NewServer(eng, name),
		size:      size,
		bandwidth: params.DiskBandwidth,
		seek:      params.DiskSeek,
		lastEnd:   -1,
		content:   make(map[int64]buf.Buf),
	}
}

// Stats reports (reads, writes, seeks).
func (d *Disk) Stats() (reads, writes, seeks uint64) { return d.reads, d.writes, d.seeks }

func (d *Disk) xferTime(n int) sim.Time {
	return sim.Time(float64(n) * 1e9 / d.bandwidth)
}

func (d *Disk) access(off int64, n int, done func()) {
	cost := d.xferTime(n)
	if off != d.lastEnd {
		cost += d.seek
		d.seeks++
	}
	d.lastEnd = off + int64(n)
	d.srv.Do(cost, "disk.io", done)
}

// chunkSize is the content-store granularity. All disk I/O in this
// codebase is sector-multiple and chunk-aligned (filesystem blocks and
// NBD requests are 4 KB multiples).
const chunkSize = 4096

// Read fetches n bytes at off; done receives the data. Unwritten space
// reads as zeros.
func (d *Disk) Read(off int64, n int, done func(buf.Buf)) {
	if off < 0 || off+int64(n) > d.size {
		panic(fmt.Sprintf("storage: read [%d,%d) beyond device size %d", off, off+int64(n), d.size))
	}
	if off%chunkSize != 0 || n%chunkSize != 0 {
		panic(fmt.Sprintf("storage: unaligned read [%d,+%d)", off, n))
	}
	d.reads++
	d.bytesRead += uint64(n)
	d.access(off, n, func() {
		var parts []buf.Buf
		for c := off; c < off+int64(n); c += chunkSize {
			if b, ok := d.content[c]; ok {
				parts = append(parts, b)
			} else {
				parts = append(parts, buf.Virtual(chunkSize))
			}
		}
		done(buf.Concat(parts...))
	})
}

// Write stores b at off.
func (d *Disk) Write(off int64, b buf.Buf, done func()) {
	if off < 0 || off+int64(b.Len()) > d.size {
		panic(fmt.Sprintf("storage: write [%d,%d) beyond device size %d", off, off+int64(b.Len()), d.size))
	}
	if off%chunkSize != 0 || b.Len()%chunkSize != 0 {
		panic(fmt.Sprintf("storage: unaligned write [%d,+%d)", off, b.Len()))
	}
	d.writes++
	d.bytesWritten += uint64(b.Len())
	for i := 0; i < b.Len(); i += chunkSize {
		d.content[off+int64(i)] = b.Slice(i, i+chunkSize)
	}
	d.access(off, b.Len(), done)
}

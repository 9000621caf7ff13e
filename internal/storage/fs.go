package storage

import (
	"fmt"

	"repro/internal/buf"
	"repro/internal/params"
	"repro/internal/sim"
)

// BlockDev is what the filesystem mounts: a local disk or an NBD client.
// Calls block the calling process until the I/O completes.
type BlockDev interface {
	// Read fetches n bytes at off.
	Read(p *sim.Proc, off int64, n int) (buf.Buf, error)
	// Write stores b at off.
	Write(p *sim.Proc, off int64, b buf.Buf) error
	// Flush forces completed writes to stable storage ('sync').
	Flush(p *sim.Proc) error
}

// LocalDev adapts a Disk to BlockDev for server-side or local use.
type LocalDev struct {
	D *Disk
}

// Read implements BlockDev.
func (l *LocalDev) Read(p *sim.Proc, off int64, n int) (buf.Buf, error) {
	var out buf.Buf
	l.D.Read(off, n, func(b buf.Buf) {
		out = b
		p.Wake()
	})
	p.Suspend()
	return out, nil
}

// Write implements BlockDev.
func (l *LocalDev) Write(p *sim.Proc, off int64, b buf.Buf) error {
	l.D.Write(off, b, func() { p.Wake() })
	p.Suspend()
	return nil
}

// Flush implements BlockDev (the disk model writes through).
func (l *LocalDev) Flush(p *sim.Proc) error { return nil }

// FS is the ext2-lite filesystem of the benchmark: sequential file I/O in
// FSBlockSize blocks over a BlockDev, with a write-back block cache and a
// per-block CPU cost calibrated so filesystem processing alone accounts
// for the >=26% utilization floor the paper reports (§4.2.3).
type FS struct {
	dev   BlockDev
	cpu   *sim.CPU
	bsize int

	// cache maps block index -> data; dirty tracks unwritten blocks.
	cache    map[int64]buf.Buf
	dirty    map[int64]bool
	order    []int64 // FIFO eviction order
	capacity int     // blocks

	hits, misses, writebacks uint64
}

// NewFS mounts dev with the given cache capacity in bytes.
func NewFS(dev BlockDev, cpu *sim.CPU, cacheBytes int) *FS {
	capBlocks := cacheBytes / params.FSBlockSize
	if capBlocks < 8 {
		capBlocks = 8
	}
	return &FS{
		dev:      dev,
		cpu:      cpu,
		bsize:    params.FSBlockSize,
		cache:    make(map[int64]buf.Buf),
		dirty:    make(map[int64]bool),
		capacity: capBlocks,
	}
}

// CacheStats reports (hits, misses, writebacks).
func (f *FS) CacheStats() (hits, misses, writebacks uint64) {
	return f.hits, f.misses, f.writebacks
}

// fsCPU charges filesystem processing for n blocks.
func (f *FS) fsCPU(p *sim.Proc, blocks int) {
	p.Use(f.cpu.Server, params.US(params.FSPerBlockUS*float64(blocks)))
}

// insert adds a block to the cache, evicting (with write-back) as needed.
func (f *FS) insert(p *sim.Proc, idx int64, b buf.Buf, dirty bool) error {
	if _, ok := f.cache[idx]; !ok {
		f.order = append(f.order, idx)
	}
	f.cache[idx] = b
	if dirty {
		f.dirty[idx] = true
	}
	for len(f.cache) > f.capacity {
		victim := f.order[0]
		f.order = f.order[1:]
		data, ok := f.cache[victim]
		if !ok {
			continue
		}
		if f.dirty[victim] {
			// Cluster the writeback: flush the contiguous dirty run
			// starting at the victim as one device request, as the page
			// cache's writeout path does. The following blocks stay
			// cached (now clean) and evict later without I/O.
			run := []buf.Buf{data}
			maxRun := params.NBDRequestBytes / f.bsize
			for next := victim + 1; len(run) < maxRun && f.dirty[next]; next++ {
				nb, ok := f.cache[next]
				if !ok {
					break
				}
				run = append(run, nb)
			}
			for i := range run {
				delete(f.dirty, victim+int64(i))
			}
			f.writebacks += uint64(len(run))
			if err := f.dev.Write(p, victim*int64(f.bsize), buf.Concat(run...)); err != nil {
				return err
			}
		}
		delete(f.cache, victim)
	}
	return nil
}

// ReadAt reads n bytes at off, going to the device in clustered requests
// (the block layer's readahead/merging) on misses.
func (f *FS) ReadAt(p *sim.Proc, off int64, n int) (buf.Buf, error) {
	if off%int64(f.bsize) != 0 || n%f.bsize != 0 {
		return buf.Empty, fmt.Errorf("storage: unaligned read [%d,+%d)", off, n)
	}
	nBlocks := n / f.bsize
	f.fsCPU(p, nBlocks)
	var parts []buf.Buf
	for i := 0; i < nBlocks; {
		idx := off/int64(f.bsize) + int64(i)
		if b, ok := f.cache[idx]; ok {
			f.hits++
			parts = append(parts, b)
			i++
			continue
		}
		// Miss: fetch a clustered request worth of blocks.
		f.misses++
		cluster := params.NBDRequestBytes / f.bsize
		if rem := nBlocks - i; cluster > rem {
			cluster = rem
		}
		data, err := f.dev.Read(p, idx*int64(f.bsize), cluster*f.bsize)
		if err != nil {
			return buf.Empty, err
		}
		for j := 0; j < cluster; j++ {
			blk := data.Slice(j*f.bsize, (j+1)*f.bsize)
			if err := f.insert(p, idx+int64(j), blk, false); err != nil {
				return buf.Empty, err
			}
			parts = append(parts, blk)
		}
		i += cluster
	}
	return buf.Concat(parts...), nil
}

// WriteAt writes b at off through the cache (write-back).
func (f *FS) WriteAt(p *sim.Proc, off int64, b buf.Buf) error {
	if off%int64(f.bsize) != 0 || b.Len()%f.bsize != 0 {
		return fmt.Errorf("storage: unaligned write [%d,+%d)", off, b.Len())
	}
	nBlocks := b.Len() / f.bsize
	f.fsCPU(p, nBlocks)
	for i := 0; i < nBlocks; i++ {
		idx := off/int64(f.bsize) + int64(i)
		if err := f.insert(p, idx, b.Slice(i*f.bsize, (i+1)*f.bsize), true); err != nil {
			return err
		}
	}
	return nil
}

// Sync flushes all dirty blocks in clustered, ascending-offset requests
// and then flushes the device — the benchmark's 'sync' step.
func (f *FS) Sync(p *sim.Proc) error {
	// Collect dirty blocks in ascending order for sequential write-out.
	var idxs []int64
	for idx := range f.dirty {
		idxs = append(idxs, idx)
	}
	sortInt64s(idxs)
	i := 0
	for i < len(idxs) {
		// Cluster contiguous dirty blocks into one device request.
		j := i + 1
		maxRun := params.NBDRequestBytes / f.bsize
		for j < len(idxs) && j-i < maxRun && idxs[j] == idxs[j-1]+1 {
			j++
		}
		var parts []buf.Buf
		for _, idx := range idxs[i:j] {
			parts = append(parts, f.cache[idx])
			delete(f.dirty, idx)
		}
		f.writebacks += uint64(j - i)
		if err := f.dev.Write(p, idxs[i]*int64(f.bsize), buf.Concat(parts...)); err != nil {
			return err
		}
		i = j
	}
	return f.dev.Flush(p)
}

// Invalidate drops the entire cache (the benchmark's unmount between
// phases: "the device was un-mounted between reads to invalidate the
// client buffer cache").
func (f *FS) Invalidate() {
	f.cache = make(map[int64]buf.Buf)
	f.dirty = make(map[int64]bool)
	f.order = nil
}

func sortInt64s(a []int64) {
	// Insertion sort is fine: sync runs cluster at a time and the dirty
	// set is bounded by the cache capacity.
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

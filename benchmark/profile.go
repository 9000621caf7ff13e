package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file turns a runtime/pprof CPU profile into host-time shares per
// layer. It decodes just enough of the profile's protobuf encoding
// (profile.proto: samples, locations, functions, string table) to recover
// each sample's stack of function names, leaf first.

// shareNames are the buckets a sample can land in; shares sum to 1.
var shareNames = []string{
	"sim", "par", "tcp", "inet", "fabric", "hw", "qpipnic", "verbs", "hostos", "gige",
	"buf_pool_wire", "driver", "rt_sched", "rt_mem", "other",
}

// layerOf maps a repo package path (below repro/) to its share bucket.
var layerOf = map[string]string{
	"internal/sim": "sim", "internal/sim/par": "par", "internal/tcp": "tcp",
	"internal/inet": "inet", "internal/fabric": "fabric", "internal/hw": "hw",
	"internal/qpipnic": "qpipnic", "internal/verbs": "verbs", "internal/hostos": "hostos",
	"internal/gige": "gige", "internal/buf": "buf_pool_wire", "internal/pool": "buf_pool_wire",
	"internal/wire": "buf_pool_wire",
}

// Runtime functions that mean "allocating or collecting" and "switching or
// waiting". A sample whose frames below the innermost repo frame include
// one is the runtime's cost, not that layer's: the Proc baton and the par
// barriers show up as rt_sched, allocation and GC as rt_mem.
var (
	memFuncs = []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice",
		"runtime.memclrNoHeapPointers", "runtime.gcBgMarkWorker", "runtime.gcDrain",
		"runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.scanobject",
		"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.sweepone",
		"runtime.(*mheap)", "runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*sweepLocked)",
		"runtime.wbBufFlush", "runtime.gcWriteBarrier", "runtime.markroot", "runtime.newarray",
	}
	schedFuncs = []string{
		"runtime.futex", "runtime.gopark", "runtime.goready", "runtime.ready", "runtime.schedule",
		"runtime.findRunnable", "runtime.chanrecv", "runtime.chansend", "runtime.casgstatus",
		"runtime.mcall", "runtime.park_m", "runtime.goexit0", "runtime.runqget", "runtime.runqput",
		"runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.notesleep", "runtime.notewakeup",
		"runtime.notetsleep", "runtime.usleep", "runtime.osyield", "runtime.execute", "runtime.mstart",
		"runtime.goschedImpl", "runtime.gosched_m", "runtime.selectgo", "runtime.semacquire",
		"runtime.semrelease", "runtime.newproc", "runtime.resetspinning", "runtime.stealWork",
		"runtime.checkTimers", "runtime.pidleget", "runtime.pidleput", "runtime.mPark",
		"runtime.lock2", "runtime.unlock2", "runtime.procyield", "runtime.netpoll",
		"runtime.send", "runtime.recv", "runtime.sendDirect", "runtime.recvDirect",
		"sync.(*WaitGroup)", "sync.runtime_Sem", "sync.(*Mutex)",
	}
)

func hasAnyPrefix(name string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// repoLayer reports the share bucket of a function in this repository
// ("" for any other function). The benchmark's own code is main.
func repoLayer(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "driver"
	}
	if !strings.HasPrefix(fn, "repro/") {
		return ""
	}
	// Cut type arguments and receivers, which may contain slashes and dots
	// of other packages, before finding the package path.
	path := fn
	if i := strings.IndexAny(path, "(["); i >= 0 {
		path = path[:i]
	}
	slash := strings.LastIndexByte(path, '/')
	if dot := strings.IndexByte(path[slash+1:], '.'); dot >= 0 {
		path = path[:slash+1+dot]
	}
	if l, ok := layerOf[strings.TrimPrefix(path, "repro/")]; ok {
		return l
	}
	return "other"
}

// attribute assigns one sample, given its function names leaf first.
func attribute(stack []string) string {
	mem, sched := false, false
	for _, fn := range stack {
		if l := repoLayer(fn); l != "" {
			switch {
			case mem:
				return "rt_mem"
			case sched:
				return "rt_sched"
			}
			return l
		}
		mem = mem || hasAnyPrefix(fn, memFuncs)
		sched = sched || hasAnyPrefix(fn, schedFuncs)
	}
	// No repo frame: GC workers and idle scheduler threads.
	switch {
	case mem:
		return "rt_mem"
	case sched:
		return "rt_sched"
	}
	return "other"
}

// profileShares decodes a gzipped CPU profile and reports the fraction of
// samples in each share bucket, plus the sample count.
func profileShares(gz []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	stacks, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	shares := make(map[string]float64, len(shareNames))
	for _, n := range shareNames {
		shares[n] = 0
	}
	total := 0
	for _, s := range stacks {
		shares[attribute(s.funcs)] += float64(s.count)
		total += s.count
	}
	if total > 0 {
		for n := range shares {
			shares[n] /= float64(total)
		}
	}
	return shares, total, nil
}

type stackSample struct {
	funcs []string // leaf first, inlined frames expanded
	count int
}

var errTruncated = errors.New("truncated protobuf")

// pbField is one decoded protobuf field: a varint value or a byte run.
type pbField struct {
	num   int
	wire  int
	val   uint64
	bytes []byte
}

// pbFields walks the fields of one protobuf message.
func pbFields(b []byte, visit func(pbField) error) error {
	for len(b) > 0 {
		tag, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		f := pbField{num: int(tag >> 3), wire: int(tag & 7)}
		switch f.wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			f.val, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			f.bytes, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", f.wire)
		}
		if err := visit(f); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// repeatedVarints appends a repeated integer field's values, packed or not.
func repeatedVarints(dst []uint64, f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.val), nil
	}
	for b := f.bytes; len(b) > 0; {
		v, n := uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

// decodeProfile extracts every sample's stack and sample count (the first
// value of a CPU profile's samples) from an uncompressed profile.proto.
func decodeProfile(raw []byte) ([]stackSample, error) {
	type rawSample struct{ locs, vals []uint64 }
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64]uint64{}   // function id -> name index
		strs    []string
	)
	err := pbFields(raw, func(f pbField) error {
		switch f.num {
		case 2: // Sample
			var s rawSample
			if err := pbFields(f.bytes, func(g pbField) (err error) {
				switch g.num {
				case 1:
					s.locs, err = repeatedVarints(s.locs, g)
				case 2:
					s.vals, err = repeatedVarints(s.vals, g)
				}
				return err
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var lines []uint64
			if err := pbFields(f.bytes, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.val
				case 4: // Line
					return pbFields(g.bytes, func(l pbField) error {
						if l.num == 1 {
							lines = append(lines, l.val)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locs[id] = lines
		case 5: // Function
			var id, name uint64
			if err := pbFields(f.bytes, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.val
				case 2:
					name = g.val
				}
				return nil
			}); err != nil {
				return err
			}
			funcs[id] = name
		case 6: // string_table
			strs = append(strs, string(f.bytes))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		st := stackSample{count: int(s.vals[0])}
		for _, loc := range s.locs {
			for _, fid := range locs[loc] {
				if idx := funcs[fid]; idx < uint64(len(strs)) {
					st.funcs = append(st.funcs, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

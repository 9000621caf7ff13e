// Package pool holds the process-wide switch for datapath object pooling,
// plus the free-list pop shared by the per-owner recyclers (Take) and the
// head-indexed FIFO compaction shared by the queues that never drain
// (Compact).
//
// The hot-path packages (tcp, wire, fabric) draw their per-packet objects —
// segments, packets, frames — from sync.Pools when pooling is enabled, and
// fall back to plain allocation when it is disabled. The switch exists so
// benchmarks and the chaos determinism tests can run the exact pre-pooling
// allocation behaviour ("old path") and the pooled behaviour in the same
// binary and compare traces and costs.
//
// SetEnabled must only be called while no simulation is running: the flag is
// read without synchronization on hot paths, so toggling it concurrently
// with engine execution is a data race. The benchmark harness toggles it
// between phases, before any worker goroutines start.
package pool

var enabled = true

// Enabled reports whether datapath pooling is on (the default).
func Enabled() bool { return enabled }

// SetEnabled switches datapath pooling on or off for subsequently created
// objects. Call only between simulation runs; see the package comment.
func SetEnabled(v bool) { enabled = v }

// Take pops the most recently freed object off a per-owner free list, or
// returns nil when the list is empty and the caller must construct one.
// The lists it serves (NIC stage runners, collective messages, host-stack
// and device jobs) belong to one adapter or kernel, hence one engine, so
// they need no locking; their objects carry continuations bound once at
// construction, which is what makes recycling them worth more than the
// allocation alone.
func Take[T any](free *[]*T) *T {
	k := len(*free) - 1
	if k < 0 {
		return nil
	}
	x := (*free)[k]
	(*free)[k] = nil
	*free = (*free)[:k]
	return x
}

// Compact prepares a head-indexed FIFO for an append: once the drained
// prefix passes half the slice the live tail slides to the front, so a
// queue that never quite empties reuses its backing array instead of
// growing it without bound. Each slide copies fewer entries than were
// popped since the previous one, so the FIFO stays amortised O(1).
func Compact[T any](q []T, head int) ([]T, int) {
	if head <= len(q)/2 {
		return q, head
	}
	n := copy(q, q[head:])
	clear(q[n:])
	return q[:n], 0
}

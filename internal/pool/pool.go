// Package pool holds the datapath recycling helpers: the free-list pop
// shared by the per-owner recyclers (Take) and the head-indexed FIFO
// compaction shared by the queues that never drain (Compact).
//
// The hot-path packages (tcp, wire, fabric) draw their per-packet objects —
// segments, packets, frames — from sync.Pools; the per-owner runners and
// jobs (NIC stage chains, collective messages, host-stack and device jobs)
// use Take on a free list that belongs to one engine.
package pool

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

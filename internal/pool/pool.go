// Package pool holds the datapath recycling helpers: the free-list pop
// shared by the per-owner recyclers (Take) and the FIFO every datapath
// queue is built on (Ring).
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

// Ring is a FIFO on a circular buffer whose size is a power of two: the
// doorbell FIFO, WR queues, CQs, TCB send lists and host rx rings all
// queue through it. Push doubles the buffer when it is full and nothing
// ever shrinks it, so its size is set by the most entries ever live at
// once, not by how many have passed through — a queue that never drains
// under windowed traffic stays at its high-water mark. Pop and PopBack
// clear the slot they empty, so a consumed buffer or packet is not kept
// alive by the ring. The zero value is an empty ring. Like Take's lists,
// a ring belongs to one engine and needs no locking; it has no bound of
// its own, since every bounded queue already enforces its depth with its
// own counter.
type Ring[T any] struct {
	buf []T
	// head and tail count pops and pushes; they run free and index buf
	// through mask, so Len is their difference even across wraparound.
	head, tail uint
}

func (q *Ring[T]) mask() uint { return uint(len(q.buf) - 1) }

// Len reports the queued entries.
func (q *Ring[T]) Len() int { return int(q.tail - q.head) }

// Cap reports the buffer size, the ring's high-water bound.
func (q *Ring[T]) Cap() int { return len(q.buf) }

// Push appends x at the back.
func (q *Ring[T]) Push(x T) {
	if q.Len() == len(q.buf) {
		q.grow()
	}
	q.buf[q.tail&q.mask()] = x
	q.tail++
}

// grow doubles the full buffer, unwrapping the contents to its start.
func (q *Ring[T]) grow() {
	buf := make([]T, max(1, 2*len(q.buf)))
	h := q.head & q.mask()
	n := copy(buf, q.buf[h:])
	copy(buf[n:], q.buf[:h])
	q.buf, q.head, q.tail = buf, 0, uint(len(q.buf))
}

// Pop removes and returns the front entry; ok is false when empty.
func (q *Ring[T]) Pop() (T, bool) {
	var zero T
	if q.head == q.tail {
		return zero, false
	}
	i := q.head & q.mask()
	x := q.buf[i]
	q.buf[i] = zero
	q.head++
	return x, true
}

// PopBack removes and returns the back entry, undoing the latest Push;
// ok is false when empty.
func (q *Ring[T]) PopBack() (T, bool) {
	var zero T
	if q.head == q.tail {
		return zero, false
	}
	q.tail--
	i := q.tail & q.mask()
	x := q.buf[i]
	q.buf[i] = zero
	return x, true
}

// Front returns the front entry in place, for a consumer that trims it
// without popping, or nil when empty. The pointer is valid until the ring
// next changes.
func (q *Ring[T]) Front() *T {
	if q.head == q.tail {
		return nil
	}
	return &q.buf[q.head&q.mask()]
}

// PopN moves up to len(dst) entries from the front into dst in FIFO order
// and reports how many it moved.
func (q *Ring[T]) PopN(dst []T) int {
	n := min(len(dst), q.Len())
	if n == 0 {
		return 0
	}
	h := q.head & q.mask()
	k := copy(dst[:n], q.buf[h:])
	clear(q.buf[h : h+uint(k)])
	copy(dst[k:n], q.buf[:n-k])
	clear(q.buf[:n-k])
	q.head += uint(n)
	return n
}

// Reset empties the ring and drops its buffer, as a queue torn down with
// its owner (a failed QP, a closed TCB, a crashed adapter) does.
func (q *Ring[T]) Reset() { *q = Ring[T]{} }

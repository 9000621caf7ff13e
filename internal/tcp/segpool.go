package tcp

import "sync"

// Outbound segments are built, marshaled, and dropped at a rate of one per
// MSS of goodput; pooling them (like the Event free list in sim) removes
// the dominant per-segment allocation from the send path.
//
// Ownership: the connection creates a segment (makeSeg), the owning stack
// marshals it into wire scratch and must then call Release exactly once —
// after the header bytes and payload handle have been copied into the
// packet, the Segment itself is dead. Received segments come from
// ParseHeader by value and are never pooled.

// Segment identity never reaches event order: NewSegment zeroes every field,
// so a pooled Segment is indistinguishable from a fresh allocation.
//
//lint:qpip-allow nogoroutine free list only; no synchronization semantics leak into the model
var segPool = sync.Pool{New: func() any { return new(Segment) }}

// NewSegment returns a zeroed pooled segment (WScale -1 = absent).
func NewSegment() *Segment {
	s := segPool.Get().(*Segment)
	*s = Segment{WScale: -1, pooled: true}
	return s
}

// Release recycles a pooled segment. No-op (and safe) on non-pooled ones.
func (s *Segment) Release() {
	if !s.pooled {
		return
	}
	*s = Segment{}
	segPool.Put(s)
}

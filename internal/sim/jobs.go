package sim

import "repro/internal/pool"

// Jobs holds the operands of jobs on one first-come-first-served resource
// — a Server or CPU, a PCI bus (hw.PCIBus), a fixed-delay After — beside
// the resource, as a hardware queue manager keeps descriptors beside its
// engine. Add queues an operand and returns the one completion bound at
// NewJobs; the caller passes it as the done of exactly one job. The
// resource completes its jobs in submission order, so each completion
// pops the oldest operand: no job object, no free list, no closure per
// job.
//
// Every Add on one Jobs must go to the same resource. Queues that share a
// resource stay correct, since each queue's own jobs still complete in
// order. Nothing resets a Jobs: a crashed adapter's in-flight jobs still
// complete, and each pops its operand.
type Jobs[T any] struct {
	q    pool.Ring[T]
	fn   func(T)
	done func()
}

// NewJobs returns an empty queue whose completion runs fn on the oldest
// operand.
func NewJobs[T any](fn func(T)) *Jobs[T] {
	j := &Jobs[T]{fn: fn}
	j.done = j.complete
	return j
}

// Add queues v and returns the completion to pass as its job's done.
//
//qpip:hotpath
func (j *Jobs[T]) Add(v T) func() {
	j.q.Push(v)
	return j.done
}

// complete pops the oldest operand — clearing its slot, so fn may Add
// again and a consumed packet is not kept alive — and runs fn on it.
//
//qpip:hotpath
func (j *Jobs[T]) complete() {
	v, _ := j.q.Pop()
	j.fn(v)
}

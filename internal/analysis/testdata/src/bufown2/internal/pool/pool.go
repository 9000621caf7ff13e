// Package pool is a stand-in for the real generic FIFO: Push stores its
// argument, so a pooled reference pushed onto a ring is handed off even
// though the parameter's type is a type parameter; Peek only looks.
package pool

// Ring is the generic queue.
type Ring[T any] struct{ buf []T }

// Push stores x: consumes it.
func (q *Ring[T]) Push(x T) { q.buf = append(q.buf, x) }

// Peek reads nothing of x: borrows it.
func (q *Ring[T]) Peek(x T) int { return len(q.buf) }

// Package sim stands in for the simulation engine: its import path ends
// in internal/sim, so maporder treats it exactly like the real one.
package sim

import "sort"

type proc struct{ woken bool }

func (p *proc) Wake() { p.woken = true }

type counter struct{ n int }

func (c *counter) Add(d int) { c.n += d }

// wakeAll is the classic determinism bug: Wake runs the woken process, so
// the map's random iteration order becomes observable behaviour.
func wakeAll(procs map[int]*proc) {
	for _, p := range procs {
		p.Wake() // want `calls order-sensitive Wake`
	}
}

// Waiter is one parking slot, as in the real engine.
type Waiter struct{ p *proc }

func (w *Waiter) Wake() {
	if p := w.p; p != nil {
		w.p = nil
		p.Wake()
	}
}

func (w *Waiter) Take() *proc {
	p := w.p
	w.p = nil
	return p
}

// wakeWaiters resumes parked processes in map order: the same bug through
// the parking slot.
func wakeWaiters(slots map[string]*Waiter) {
	for _, w := range slots {
		w.Wake() // want `calls order-sensitive Wake`
	}
}

// takeWaiters hands parked processes out in map order, so whatever the
// caller schedules for them is ordered by the map too.
func takeWaiters(slots map[string]*Waiter) []*proc {
	out := make([]*proc, 0, len(slots))
	for _, w := range slots {
		if p := w.Take(); p != nil { // want `calls order-sensitive Take`
			out = append(out, p)
		}
	}
	return out
}

// keysUnsorted leaks map order into a slice consumed by the caller.
func keysUnsorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want `appends to out \(declared outside the loop, never sorted\)`
	}
	return out
}

// keysSorted is the canonical collect-then-sort idiom and must stay legal.
func keysSorted(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// sumCounters is commutative: no order-sensitive callee, no outer append.
func sumCounters(m map[string]*counter) int {
	total := 0
	for _, c := range m {
		total += c.n
	}
	return total
}

// bumpAll trips the callee-name heuristic but the increments commute, so
// the site documents itself with an allow.
func bumpAll(m map[string]*counter) {
	for _, c := range m {
		//lint:qpip-allow maporder counter increments commute; order cannot be observed
		c.Add(1)
	}
}

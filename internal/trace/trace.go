// Package trace provides the instrumentation used to regenerate the
// paper's occupancy tables: named stage timers (Tables 2 and 3 are
// per-stage means measured with the LANai cycle counter) and simple
// counters.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Stage accumulates observations of one named processing stage.
type Stage struct {
	Count uint64
	Total sim.Time
}

// MeanMicros reports the mean stage time in microseconds.
func (s *Stage) MeanMicros() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Total.Micros() / float64(s.Count)
}

// Observe records one observation directly on the accumulator. Holders
// obtained via Counter use this on hot paths to skip the map lookup.
func (s *Stage) Observe(d sim.Time) {
	s.Count++
	s.Total += d
}

// Stages is a set of named stage timers.
type Stages struct {
	m map[string]*Stage
}

// NewStages returns an empty stage set.
func NewStages() *Stages { return &Stages{m: make(map[string]*Stage)} }

// Add records one observation of duration d for the named stage.
func (s *Stages) Add(name string, d sim.Time) {
	st := s.m[name]
	if st == nil {
		st = &Stage{}
		s.m[name] = st
	}
	st.Count++
	st.Total += d
}

// Counter returns the named stage accumulator, creating it if needed. The
// pointer stays valid across Reset (which zeroes accumulators in place), so
// callers can resolve it once and Observe per event with no map lookup.
func (s *Stages) Counter(name string) *Stage {
	st := s.m[name]
	if st == nil {
		st = &Stage{}
		s.m[name] = st
	}
	return st
}

// Get returns the named stage (nil if never observed).
func (s *Stages) Get(name string) *Stage { return s.m[name] }

// Mean reports the mean time in microseconds for the named stage (0 if
// never observed).
func (s *Stages) Mean(name string) float64 {
	st := s.m[name]
	if st == nil {
		return 0
	}
	return st.MeanMicros()
}

// Names reports all stage names with at least one observation, sorted.
// Counters resolved eagerly but never observed stay invisible.
func (s *Stages) Names() []string {
	out := make([]string, 0, len(s.m))
	for k, st := range s.m {
		if st.Count > 0 {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Reset zeroes all stages in place, preserving pointers handed out by
// Counter.
func (s *Stages) Reset() {
	for _, st := range s.m {
		st.Count, st.Total = 0, 0
	}
}

// String renders the stage table.
func (s *Stages) String() string {
	var b strings.Builder
	for _, n := range s.Names() {
		st := s.m[n]
		fmt.Fprintf(&b, "%-24s %8d x %8.2f us\n", n, st.Count, st.MeanMicros())
	}
	return b.String()
}

// Counters is a set of named monotonic event counters — the per-stack
// drop/corrupt/retransmit accounting the fault-injection layer and the
// chaos benches read. Names are dotted paths ("rx.corrupt",
// "tx.retransmit") so related counters sort together. A counter that reads
// zero is indistinguishable from one that was never touched.
type Counters struct {
	m map[string]*uint64
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters { return &Counters{m: make(map[string]*uint64)} }

// Handle returns the named counter's cell, creating it if needed. The
// pointer stays valid across Reset (which zeroes cells in place), so
// per-message paths resolve it once and increment with no map lookup.
func (c *Counters) Handle(name string) *uint64 {
	v := c.m[name]
	if v == nil {
		v = new(uint64)
		c.m[name] = v
	}
	return v
}

// Add increments the named counter by delta.
func (c *Counters) Add(name string, delta uint64) { *c.Handle(name) += delta }

// Get reports the named counter (0 if never incremented).
func (c *Counters) Get(name string) uint64 {
	if v := c.m[name]; v != nil {
		return *v
	}
	return 0
}

// AddAll merges every counter from src into c — the chaos report uses it
// to sum per-node adapter counters into one cluster-wide view.
func (c *Counters) AddAll(src *Counters) {
	for k, v := range src.m {
		if *v != 0 {
			*c.Handle(k) += *v
		}
	}
}

// Names reports all incremented counter names, sorted. Cells resolved
// through Handle but still zero stay invisible.
func (c *Counters) Names() []string {
	out := make([]string, 0, len(c.m))
	for k, v := range c.m {
		if *v != 0 {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Reset zeroes all counters in place, preserving pointers handed out by
// Handle.
func (c *Counters) Reset() {
	for _, v := range c.m {
		*v = 0
	}
}

// String renders the counter table.
func (c *Counters) String() string {
	var b strings.Builder
	for _, n := range c.Names() {
		fmt.Fprintf(&b, "%-24s %10d\n", n, c.Get(n))
	}
	return b.String()
}

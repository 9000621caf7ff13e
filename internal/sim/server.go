package sim

import "fmt"

// Server is a non-preemptive first-come-first-served resource: a CPU, a DMA
// engine, a link transmitter. Work submitted with Do occupies the server for
// a given duration; completions run in submission order. The server tracks
// cumulative busy time so callers can compute utilization — the quantity the
// paper reports for host CPUs and NIC occupancy.
type Server struct {
	eng       *Engine
	name      string
	busyUntil Time
	busyTotal Time
	jobs      uint64
	maxQueue  int
	inQueue   int
}

// NewServer returns an idle server bound to eng.
func NewServer(eng *Engine, name string) *Server {
	return &Server{eng: eng, name: name}
}

// Name reports the server's diagnostic name.
func (s *Server) Name() string { return s.name }

// Do enqueues a job of the given duration and schedules done (which may be
// nil) to run when the job completes. It returns the completion time.
//
//qpip:hotpath
func (s *Server) Do(d Time, what string, done func()) Time {
	if d < 0 {
		panic(fmt.Sprintf("sim: server %s job %q with negative duration %v", s.name, what, d))
	}
	start := s.eng.Now()
	if s.busyUntil > start {
		start = s.busyUntil
	}
	finish := start + d
	s.busyUntil = finish
	s.busyTotal += d
	s.jobs++
	s.inQueue++
	if s.inQueue > s.maxQueue {
		s.maxQueue = s.inQueue
	}
	// The completion event carries the server pointer instead of a wrapper
	// closure; the engine decrements inQueue itself. This keeps the hot
	// Do path allocation-free (the event comes from the engine free list).
	ev := s.eng.At(finish, what, done)
	ev.srv = s
	return finish
}

// Idle reports whether the server has no queued or running work.
func (s *Server) Idle() bool { return s.busyUntil <= s.eng.Now() }

// BusyTotal reports the cumulative busy time across all jobs ever submitted
// (including queued jobs not yet finished).
func (s *Server) BusyTotal() Time { return s.busyTotal }

// Jobs reports the number of jobs ever submitted.
func (s *Server) Jobs() uint64 { return s.jobs }

// MaxQueue reports the high-water mark of simultaneously outstanding jobs.
func (s *Server) MaxQueue() int { return s.maxQueue }

// Utilization reports busyTotal / elapsed over [0, now], clamped to [0, 1].
// A server backlogged past now reports 1.
func (s *Server) Utilization() float64 {
	now := s.eng.Now()
	if now == 0 {
		return 0
	}
	busy := s.busyTotal
	if s.busyUntil > now {
		busy -= s.busyUntil - now // exclude not-yet-elapsed busy time
	}
	u := float64(busy) / float64(now)
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	return u
}

// UtilizationSince reports the fraction of [since, now] the server was busy,
// given the busy total captured at `since` via BusyTotal.
func (s *Server) UtilizationSince(since Time, busyAtSince Time) float64 {
	now := s.eng.Now()
	if now <= since {
		return 0
	}
	busy := s.busyTotal - busyAtSince
	if s.busyUntil > now {
		busy -= s.busyUntil - now
	}
	u := float64(busy) / float64(now-since)
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	return u
}

// CPU is a Server with a clock rate, so work can be expressed in cycles —
// the unit the paper uses for host overhead (Table 1) and NIC stage costs
// (Tables 2 and 3).
type CPU struct {
	*Server
	hz float64
}

// NewCPU returns a CPU resource running at hz cycles per second.
func NewCPU(eng *Engine, name string, hz float64) *CPU {
	if hz <= 0 {
		panic("sim: CPU clock rate must be positive")
	}
	return &CPU{Server: NewServer(eng, name), hz: hz}
}

// CycleTime converts a cycle count to simulated time.
func (c *CPU) CycleTime(cycles float64) Time {
	return Time(cycles * 1e9 / c.hz)
}

// Cycles converts a duration to a cycle count at this CPU's clock rate.
func (c *CPU) Cycles(d Time) float64 {
	return float64(d) * c.hz / 1e9
}

// DoCycles enqueues a job costing the given number of cycles.
//
//qpip:hotpath
func (c *CPU) DoCycles(cycles float64, what string, done func()) Time {
	return c.Do(c.CycleTime(cycles), what, done)
}

// BusyCycles reports cumulative busy time in cycles.
func (c *CPU) BusyCycles() float64 { return c.Cycles(c.BusyTotal()) }

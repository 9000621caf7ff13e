package sim

import "fmt"

// Server is a non-preemptive first-come-first-served resource: a CPU, a DMA
// engine, a link transmitter. Work submitted with Do occupies the server for
// a given duration; completions run in submission order. The server tracks
// cumulative busy time so callers can compute utilization — the quantity the
// paper reports for host CPUs and NIC occupancy.
type Server struct {
	eng       *Engine
	name      string // for the negative-duration panic only
	busyUntil Time
	busyTotal Time
}

// NewServer returns an idle server bound to eng.
func NewServer(eng *Engine, name string) *Server {
	return &Server{eng: eng, name: name}
}

// Do enqueues a job of the given duration and schedules done (which may be
// nil) to run when the job completes. It returns the completion time.
//
//qpip:hotpath
func (s *Server) Do(d Time, what string, done func()) Time {
	finish := s.reserve(d, what)
	s.eng.At(finish, what, done)
	return finish
}

// reserve books a job of duration d behind the jobs already submitted and
// returns its completion time; the caller schedules the completion.
//
//qpip:hotpath
func (s *Server) reserve(d Time, what string) Time {
	if d < 0 {
		panic(fmt.Sprintf("sim: server %s job %q with negative duration %v", s.name, what, d))
	}
	s.busyUntil = max(s.eng.Now(), s.busyUntil) + d
	s.busyTotal += d
	return s.busyUntil
}

// BusyUntil reports when the last job submitted so far completes: no job
// submitted from now on can finish before BusyUntil plus its duration.
func (s *Server) BusyUntil() Time { return s.busyUntil }

// BusyTotal reports the cumulative busy time across all jobs ever submitted
// (including queued jobs not yet finished).
func (s *Server) BusyTotal() Time { return s.busyTotal }

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

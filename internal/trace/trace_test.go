package trace

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestStagesAccumulate(t *testing.T) {
	s := NewStages()
	s.Add("Get WR", 5500*sim.Nanosecond)
	s.Add("Get WR", 5500*sim.Nanosecond)
	s.Add("Send", 1000*sim.Nanosecond)
	if got := s.Mean("Get WR"); got != 5.5 {
		t.Errorf("Mean = %v, want 5.5", got)
	}
	if st := s.Get("Get WR"); st.Count != 2 {
		t.Errorf("Count = %d", st.Count)
	}
	if got := s.Mean("missing"); got != 0 {
		t.Errorf("Mean(missing) = %v", got)
	}
}

func TestStagesNamesSorted(t *testing.T) {
	s := NewStages()
	s.Add("b", 1)
	s.Add("a", 1)
	s.Add("c", 1)
	names := s.Names()
	if len(names) != 3 || names[0] != "a" || names[2] != "c" {
		t.Errorf("Names = %v", names)
	}
}

func TestStagesReset(t *testing.T) {
	s := NewStages()
	ctr := s.Counter("x")
	s.Add("x", 100)
	s.Reset()
	if st := s.Get("x"); st != nil && st.Count != 0 {
		t.Error("Reset did not clear")
	}
	if len(s.Names()) != 0 {
		t.Errorf("Names after Reset = %v, want none", s.Names())
	}
	// Counter pointers survive Reset so hot paths can cache them.
	ctr.Observe(200)
	if got := s.Mean("x"); got != 0.2 {
		t.Errorf("Mean after Reset+Observe = %v, want 0.2", got)
	}
}

func TestStagesString(t *testing.T) {
	s := NewStages()
	s.Add("Media Rcv", sim.Microsecond)
	out := s.String()
	if !strings.Contains(out, "Media Rcv") || !strings.Contains(out, "1.00") {
		t.Errorf("String() = %q", out)
	}
}

func TestMeanMicrosZeroCount(t *testing.T) {
	var st Stage
	if st.MeanMicros() != 0 {
		t.Error("empty stage mean nonzero")
	}
}

func TestCountersHandle(t *testing.T) {
	c := NewCounters()
	h := c.Handle("coll.msgs")
	if len(c.Names()) != 0 || c.String() != "" {
		t.Errorf("a resolved but zero cell is visible: %v", c.Names())
	}
	*h += 3
	c.Add("coll.msgs", 2)
	if got := c.Get("coll.msgs"); got != 5 {
		t.Errorf("Get = %d, want 5 (Handle and Add share one cell)", got)
	}
	sum := NewCounters()
	sum.Handle("untouched")
	sum.AddAll(c)
	sum.AddAll(c)
	if got := sum.Get("coll.msgs"); got != 10 {
		t.Errorf("AddAll sum = %d, want 10", got)
	}
	if names := sum.Names(); len(names) != 1 || names[0] != "coll.msgs" {
		t.Errorf("Names = %v, want only the nonzero counter", names)
	}
	c.Reset()
	if c.Get("coll.msgs") != 0 || len(c.Names()) != 0 {
		t.Error("Reset did not clear")
	}
	// Handles survive Reset so per-message paths can cache them.
	*h++
	if got := c.Get("coll.msgs"); got != 1 {
		t.Errorf("Get after Reset + increment through the old handle = %d, want 1", got)
	}
}

package trace

import (
	"testing"

	"repro/internal/sim"
)

func TestStagesAccumulate(t *testing.T) {
	s := NewStages()
	get := s.Counter("Get WR")
	get.Observe(5500 * sim.Nanosecond)
	get.Observe(5500 * sim.Nanosecond)
	s.Counter("Send").Observe(1000 * sim.Nanosecond)
	if got := s.Mean("Get WR"); got != 5.5 {
		t.Errorf("Mean = %v, want 5.5", got)
	}
	if s.Counter("Get WR") != get || get.Count != 2 {
		t.Errorf("Counter returned a new cell or Count = %d, want 2", get.Count)
	}
	if got := s.Mean("missing"); got != 0 {
		t.Errorf("Mean(missing) = %v", got)
	}
}

func TestStagesReset(t *testing.T) {
	s := NewStages()
	ctr := s.Counter("x")
	ctr.Observe(100)
	s.Reset()
	if ctr.Count != 0 || ctr.Total != 0 || s.Mean("x") != 0 {
		t.Errorf("Reset did not clear: %+v", *ctr)
	}
	// Counter pointers survive Reset so hot paths can cache them.
	ctr.Observe(200)
	if got := s.Mean("x"); got != 0.2 {
		t.Errorf("Mean after Reset+Observe = %v, want 0.2", got)
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
}

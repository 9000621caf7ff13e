package sim

import (
	"math/rand"
	"testing"
)

// Operands queued on one Jobs pop in the order their jobs were submitted,
// even when the resource also runs other jobs, submissions share a tick,
// durations are zero, and the completion itself submits a second stage
// through the same queue.
func TestJobsPopInSubmissionOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		e := NewEngine()
		s := NewServer(e, "cpu")
		var submitted, got []int
		var jobs *Jobs[int]
		jobs = NewJobs(func(v int) {
			got = append(got, v)
			if v >= 0 { // a first stage re-queues itself as a second stage
				submitted = append(submitted, -1-v)
				s.Do(Time(rng.Intn(3)), "stage2", jobs.Add(-1-v))
			}
		})
		for i := 0; i < 50; i++ {
			i := i
			e.At(Time(rng.Intn(100)), "submit", func() {
				s.Do(Time(rng.Intn(20)), "other", nil) // a job outside the queue
				submitted = append(submitted, i)
				s.Do(Time(rng.Intn(20)), "stage1", jobs.Add(i))
			})
		}
		e.Run()
		if len(got) != 100 {
			t.Fatalf("trial %d: %d completions, want 100", trial, len(got))
		}
		for k := range got {
			if got[k] != submitted[k] {
				t.Fatalf("trial %d: completion %d popped %d, want %d", trial, k, got[k], submitted[k])
			}
		}
	}
}

// A fixed delay is FIFO too: same-tick events fire in schedule order.
func TestJobsOnFixedDelay(t *testing.T) {
	e := NewEngine()
	var got []string
	jobs := NewJobs(func(v string) { got = append(got, v) })
	for _, v := range []string{"a", "b", "c"} {
		e.After(0, "deliver", jobs.Add(v))
	}
	e.Run()
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("popped %v, want [a b c]", got)
	}
}

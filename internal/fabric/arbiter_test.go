package fabric

import (
	"sort"
	"testing"

	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/topo"
)

// refGrant is the arbiter as it was first written, kept as the reference
// the scan is held to: stable-sort the whole queue by (arrival, ingress)
// and pop the front.
func refGrant(q []pendTransit) (pendTransit, []pendTransit) {
	sort.SliceStable(q, func(i, j int) bool {
		a, b := q[i], q[j]
		if a.at != b.at {
			return a.at < b.at
		}
		return a.ingress < b.ingress
	})
	return q[0], q[1:]
}

// The scan arbiter must grant in exactly the stable sort's order on the
// shapes that decide ties: many arrivals in one tick, mixed ingress ports,
// back-to-back frames from one upstream link (identical keys), and
// arrivals that interleave with grants.
func TestArbiterScanMatchesStableSort(t *testing.T) {
	rnd := uint64(0x9E3779B97F4A7C15)
	next := func(n int) int {
		rnd ^= rnd << 13
		rnd ^= rnd >> 7
		rnd ^= rnd << 17
		return int(rnd % uint64(n))
	}
	for round := 0; round < 2000; round++ {
		op := &egress{}
		var ref []pendTransit
		now := sim.Time(0)
		granted := 0
		for steps := 1 + next(40); steps > 0 || len(ref) > 0; steps-- {
			if steps > 0 && next(3) != 0 {
				// A burst landing in one tick; ticks repeat more often
				// than they advance, and few ingress ports make identical
				// keys common.
				now += sim.Time(next(2))
				for k := 1 + next(4); k > 0; k-- {
					p := pendTransit{at: now, ingress: next(3), fr: &Frame{}}
					op.pending = append(op.pending, p)
					ref = append(ref, p)
				}
				continue
			}
			if len(ref) == 0 {
				continue
			}
			var want pendTransit
			want, ref = refGrant(ref)
			got := op.takeGrant()
			if got.fr != want.fr {
				t.Fatalf("round %d grant %d: scan granted (at %v, ingress %d), stable sort (at %v, ingress %d)",
					round, granted, got.at, got.ingress, want.at, want.ingress)
			}
			granted++
		}
		if len(op.pending) != 0 {
			t.Fatalf("round %d: %d entries left after the reference drained", round, len(op.pending))
		}
	}
}

// TestTopoGrantsAllocFree pins the arbiter's allocation budget at zero:
// eight sources converge on one endpoint of a fat-tree, so every run
// queues frames behind one another at the last egress and takes the
// pending-set path (kick, scan, order-preserving removal) a thousand
// times over.
func TestTopoGrantsAllocFree(t *testing.T) {
	if pool.RaceEnabled {
		t.Skip("race-mode sync.Pool drops recycles by design")
	}
	const n = 16
	eng := sim.NewEngine()
	f := myrinetTopo(eng, topo.Spec{Kind: topo.FatTree}, n)
	delivered := 0
	for i := 0; i < n; i++ {
		f.Attach(func(*Frame) { delivered++ })
	}
	step := func() {
		for src := 1; src <= 8; src++ {
			f.Send(NewFrame(src, 0, 1500, nil), nil)
		}
		eng.Run()
	}
	for i := 0; i < 16; i++ {
		step()
	}
	before := delivered
	if avg := testing.AllocsPerRun(125, step); avg > 0 {
		t.Errorf("8 contending frames allocate %.0f objects per run after warmup, want 0", avg)
	}
	if got := delivered - before; got != 126*8 {
		t.Errorf("delivered %d frames, want %d", got, 126*8)
	}
}

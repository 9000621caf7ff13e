package qpipnic

import (
	"runtime"
	"testing"

	"repro/internal/fabric"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/verbs"
)

// checkCollPools asserts the recycling invariants at quiesce: every
// message on a free list is marked free and sits there once, no parked
// step is also on a free list, and the cluster-wide balance of messages
// handed out against messages recycled equals wantLive.
func checkCollPools(t *testing.T, nics []*NIC, wantLive int) {
	t.Helper()
	free := map[*collMsg]bool{}
	live := 0
	for i, n := range nics {
		live += n.collLive
		for _, m := range n.collFree {
			if m.refs >= 0 {
				t.Errorf("nic %d: free-listed message holds refs=%d", i, m.refs)
			}
			if free[m] {
				t.Errorf("nic %d: message recycled twice", i)
			}
			free[m] = true
		}
	}
	for i, n := range nics {
		for _, g := range n.collGroups { //lint:qpip-allow maporder assertion only
			for _, op := range g.ops {
				if op == nil {
					continue
				}
				for _, m := range op.stash {
					if m != nil && (free[m] || m.refs <= 0) {
						t.Errorf("nic %d op %d: parked step is free-listed (refs=%d)", i, op.seq, m.refs)
					}
				}
			}
		}
	}
	if live != wantLive {
		t.Errorf("%d ring messages outstanding at quiesce, want %d", live, wantLive)
	}
}

// One steady-state ring step — send, three arbitrated switch hops, the
// coll.step stage, combine, next send — allocates nothing. Ranks are laid
// out so that every ring neighbour sits under another leaf switch, making
// every message take the full leaf-spine-leaf route. What one allreduce
// does allocate is per operation (the completion closure, the result
// payload), amortized here over 126 steps a rank.
func TestCollRingStepAllocFree(t *testing.T) {
	if pool.RaceEnabled {
		t.Skip("race-mode sync.Pool drops recycles by design")
	}
	const n, words = 64, 64
	c := newCollCluster(t, n, topo.Spec{Kind: topo.FatTree})
	graph := topo.Build(topo.Spec{Kind: topo.FatTree}, n)
	node := func(rank int) int { return (rank%16)*4 + rank/16 }
	members := c.addrs[:0:0]
	for r := 0; r < n; r++ {
		members = append(members, c.addrs[node(r)])
		if hops := len(graph.Route(node(r), node((r+1)%n))); hops != 3 {
			t.Fatalf("rank %d -> %d is %d hops, want 3", r, (r+1)%n, hops)
		}
	}
	cqs := make([]*verbs.CQ, n)
	vecs := make([][]uint64, n)
	for r := 0; r < n; r++ {
		nic := c.nics[node(r)]
		cqs[r] = verbs.NewCQ(nic, 64)
		if err := nic.JoinColl(1, r, members, cqs[r]); err != nil {
			t.Fatal(err)
		}
		vecs[r] = make([]uint64, words)
		for j := range vecs[r] {
			vecs[r][j] = uint64(r*1000 + j)
		}
	}
	ops := 0
	op := func() {
		for r := 0; r < n; r++ {
			wr := verbs.CollWR{Op: verbs.OpAllreduce, ID: uint64(ops), Vec: vecs[r]}
			if err := c.nics[node(r)].PostColl(1, wr); err != nil {
				t.Fatal(err)
			}
		}
		ops++
		c.eng.Run()
	}
	op()
	op()
	var msgs uint64
	for _, nic := range c.nics {
		msgs += nic.Net.Get("coll.msgs")
	}
	steps := float64(msgs) / 2
	if want := float64(n * 2 * (n - 1)); steps != want {
		t.Fatalf("%v ring steps per allreduce, want %v", steps, want)
	}
	if per := testing.AllocsPerRun(4, op) / steps; per > 0.25 {
		t.Errorf("%.2f allocations per ring step after warmup, want <= 0.25", per)
	}
	for r := 0; r < n; r++ {
		if cqs[r].Len() != ops {
			t.Fatalf("rank %d completed %d of %d allreduces", r, cqs[r].Len(), ops)
		}
	}
	checkCollPools(t, c.nics, 0)
}

// A long-lived group must hold buffer for its outstanding operations, not
// for every operation it ever ran: a finished op keeps its duplicate
// fence and hands everything else back.
func TestCollGroupMemoryBounded(t *testing.T) {
	const n, words = 4, 4096
	c := newCollCluster(t, n, topo.Spec{Kind: topo.Ring})
	qs, cqs := c.join(t)
	next := 0
	run := func(ops int) uint64 {
		for i := 0; i < n; i++ {
			i := i
			c.eng.Spawn("rank", func(p *sim.Proc) {
				vec := make([]uint64, words)
				for j := range vec {
					vec[j] = uint64(i + j)
				}
				for op := next; op < next+ops; op++ {
					if err := qs[i].PostAllreduce(p, uint64(op), vec); err != nil {
						t.Errorf("rank %d op %d: %v", i, op, err)
						return
					}
					comp := cqs[i].Wait(p)
					if comp.Status != verbs.StatusSuccess || comp.WRID != uint64(op) {
						t.Errorf("rank %d op %d: completion %+v", i, op, comp)
						return
					}
				}
			})
		}
		c.eng.Run()
		next += ops
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := run(50)
	after := run(450)
	if t.Failed() {
		return
	}
	if grown := int64(after) - int64(base); grown > 2<<20 {
		t.Errorf("live heap grew %d KB over 450 allreduces of %d words, want < 2 MB", grown>>10, words)
	}
	for i, nic := range c.nics {
		g := nic.collGroups[1]
		if len(g.vecFree) > 2 || len(g.stashFree) > 2 {
			t.Errorf("nic %d: free lists hold %d vectors / %d stashes for one outstanding op", i, len(g.vecFree), len(g.stashFree))
		}
	}
	checkCollPools(t, c.nics, 0)
}

// An adapter crash in the middle of an allreduce, with every frame
// duplicated and some delayed: steps parked on the crashed adapter and
// copies still in flight to it reference the same messages. None may
// reach a free list while a frame still points at it (Release panics on a
// message released past its last reference), everything must be back on a
// free list once the fabric drains, and after restart and re-join the
// recycled messages must carry a fresh allreduce to the exact sum. In the
// "parked" variant the crashing rank has not posted, so its predecessor's
// steps sit in the stash of an operation the host never started.
func TestCollCrashMidAllreduceKeepsPoolsSound(t *testing.T) {
	const n, vlen, victim = 6, 24, 2
	for _, spec := range []topo.Spec{{}, {Kind: topo.Ring}, {Kind: topo.FatTree}} {
		for _, parked := range []bool{false, true} {
			c := newCollCluster(t, n, spec)
			c.fab.Fault = func(fr *fabric.Frame, cnt uint64, now sim.Time) fabric.FaultDecision {
				return fabric.FaultDecision{Duplicate: true, ExtraDelay: sim.Time(cnt%3) * 700 * sim.Nanosecond}
			}
			qs, _ := c.join(t)
			for i := 0; i < n; i++ {
				if parked && i == victim {
					continue
				}
				i := i
				c.eng.Spawn("rank", func(p *sim.Proc) {
					if err := qs[i].PostAllreduce(p, 1, make([]uint64, vlen)); err != nil {
						t.Errorf("rank %d: %v", i, err)
					}
				})
			}
			held := 0
			c.eng.Spawn("fault", func(p *sim.Proc) {
				p.Sleep(22 * sim.Microsecond)
				for _, nic := range c.nics {
					held += nic.collLive
				}
				c.nics[victim].Crash()
				p.Sleep(500 * sim.Microsecond)
				c.nics[victim].Restart()
			})
			c.eng.Run()
			if held == 0 {
				t.Fatalf("%v parked=%v: no message was outstanding at the crash; the test must crash mid-schedule", spec.Kind, parked)
			}
			if parked && c.nics[victim].Net.Get("coll.dup-drop") == 0 {
				t.Errorf("%v: no duplicate hit a parked step before the crash", spec.Kind)
			}
			checkCollPools(t, c.nics, 0)

			// Recovery: every rank re-joins (fresh group state), then one
			// more allreduce runs on the recycled messages.
			got := allreduceRun(t, c, vlen)
			checkAllreduce(t, got, n, vlen)
			checkCollPools(t, c.nics, 0)
		}
	}
}

// The op table is a window above a done floor: after 1 000 allreduces it
// holds no finished operation, and a duplicate of op 0 re-delivered then
// finds no state, yet is still refused, counted and released.
func TestCollOpTableHoldsOnlyOutstandingOps(t *testing.T) {
	const n, words, ops = 4, 8, 1000
	c := newCollCluster(t, n, topo.Spec{Kind: topo.Ring})
	cqs := make([]*verbs.CQ, n)
	for r := range n {
		cqs[r] = verbs.NewCQ(c.nics[r], ops)
		if err := c.nics[r].JoinColl(1, r, c.addrs, cqs[r]); err != nil {
			t.Fatal(err)
		}
	}
	vec := make([]uint64, words)
	for op := range ops {
		for r := range n {
			if err := c.nics[r].PostColl(1, verbs.CollWR{Op: verbs.OpAllreduce, ID: uint64(op), Vec: vec}); err != nil {
				t.Fatal(err)
			}
		}
		c.eng.Run()
	}
	for r, nic := range c.nics {
		if cqs[r].Len() != ops {
			t.Fatalf("rank %d completed %d of %d allreduces", r, cqs[r].Len(), ops)
		}
		g := nic.collGroups[1]
		if g.floor != ops || len(g.ops) != 0 {
			t.Errorf("rank %d: floor %d with %d ops in the window after %d finished allreduces, want floor %d and none", r, g.floor, len(g.ops), ops, ops)
		}
		if len(g.opFree) > 2 {
			t.Errorf("rank %d: %d recycled op states for one outstanding op", r, len(g.opFree))
		}
	}

	// Re-deliver rank 0's step-0 message of op 0 to rank 1, as a
	// recycled message the receiving adapter holds.
	nic := c.nics[1]
	before := nic.Net.Get("coll.dup-drop")
	m := nic.getCollMsg()
	m.group, m.seq, m.kind, m.step, m.from = 1, 0, collRing, 0, 0
	m.vec = append(m.vec, vec[:2]...)
	nic.receiveColl(m)
	c.eng.Run()
	if got := nic.Net.Get("coll.dup-drop") - before; got != 1 {
		t.Errorf("duplicate of op 0 counted %d times in coll.dup-drop, want 1", got)
	}
	if g := nic.collGroups[1]; len(g.ops) != 0 {
		t.Errorf("duplicate of op 0 created %d ops in the window", len(g.ops))
	}
	checkCollPools(t, c.nics, 0)
}

package qpipnic

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/hw"
	"repro/internal/inet"
	"repro/internal/params"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/verbs"
)

// collCluster is an n-node QPIP testbed for the collective engine,
// optionally on a multi-hop topology.
type collCluster struct {
	eng   *sim.Engine
	fab   *fabric.Fabric
	hosts []*sim.CPU
	nics  []*NIC
	addrs []inet.Addr6
}

func newCollCluster(t *testing.T, n int, spec topo.Spec) *collCluster {
	t.Helper()
	eng := sim.NewEngine()
	cfg := fabric.Config{
		Name:         "myri",
		Bandwidth:    params.MyrinetBandwidth,
		LinkOverhead: params.MyrinetHeaderBytes,
		CutThrough:   true,
		HopLatency:   params.MyrinetHopLatency,
		PropDelay:    params.CableLatency,
	}
	if spec.Kind != topo.None {
		cfg.Topo = topo.Build(spec, n)
	}
	fab := fabric.New(eng, cfg)
	routes := inet.NewTable6()
	c := &collCluster{eng: eng, fab: fab}
	for i := 0; i < n; i++ {
		host := sim.NewCPU(eng, "host", params.HostClockHz)
		bus := hw.NewPCIBus(eng, "pci", params.PCIBandwidth, params.PCIDMASetup, params.PCIWriteLatency)
		nic := New(eng, fab, Config{
			Name:    "nic",
			Addr:    inet.NodeAddr6(i),
			MTU:     params.MTUQPIP,
			HostCPU: host,
			Bus:     bus,
			Routes:  routes,
		})
		routes.Add(inet.NodeAddr6(i), nic.Attachment())
		c.hosts = append(c.hosts, host)
		c.nics = append(c.nics, nic)
		c.addrs = append(c.addrs, inet.NodeAddr6(i))
	}
	return c
}

// join builds one CollQ + CQ per rank for group 1.
func (c *collCluster) join(t *testing.T) (qs []*verbs.CollQ, cqs []*verbs.CQ) {
	t.Helper()
	for i := range c.nics {
		cq := verbs.NewCQ(c.nics[i], 64)
		q, err := verbs.NewCollQ(c.nics[i], 1, i, c.addrs, cq)
		if err != nil {
			t.Fatalf("rank %d NewCollQ: %v", i, err)
		}
		if q.Rank() != i || q.Size() != len(c.addrs) {
			t.Fatalf("rank %d joined as rank %d of %d", i, q.Rank(), q.Size())
		}
		qs = append(qs, q)
		cqs = append(cqs, cq)
	}
	return qs, cqs
}

func TestCollBarrierGatesOnLastArrival(t *testing.T) {
	const n = 8
	c := newCollCluster(t, n, topo.Spec{})
	qs, cqs := c.join(t)
	postAt := make([]sim.Time, n)
	doneAt := make([]sim.Time, n)
	for i := 0; i < n; i++ {
		i := i
		c.eng.Spawn("rank", func(p *sim.Proc) {
			// Stagger the posts so the barrier actually gates: the last
			// rank arrives 350 us after the first.
			p.Sleep(sim.Time(i) * 50 * sim.Microsecond)
			postAt[i] = p.Now()
			if err := qs[i].PostBarrier(p, uint64(i)); err != nil {
				t.Errorf("rank %d PostBarrier: %v", i, err)
				return
			}
			comp := cqs[i].Wait(p)
			doneAt[i] = p.Now()
			if comp.Op != verbs.OpBarrier || comp.Status != verbs.StatusSuccess || comp.WRID != uint64(i) {
				t.Errorf("rank %d completion %+v", i, comp)
			}
		})
	}
	c.eng.Run()
	var lastPost, firstDone sim.Time
	for i := 0; i < n; i++ {
		if postAt[i] > lastPost {
			lastPost = postAt[i]
		}
		if doneAt[i] == 0 {
			t.Fatalf("rank %d never completed", i)
		}
		if i == 0 || doneAt[i] < firstDone {
			firstDone = doneAt[i]
		}
	}
	if firstDone < lastPost {
		t.Errorf("barrier released at %v before last arrival posted at %v", firstDone, lastPost)
	}
}

func TestCollBcastDeliversRootVector(t *testing.T) {
	const n = 7
	const root = 2
	want := []uint64{11, 22, 33, 44}
	c := newCollCluster(t, n, topo.Spec{})
	qs, cqs := c.join(t)
	got := make([][]uint64, n)
	for i := 0; i < n; i++ {
		i := i
		c.eng.Spawn("rank", func(p *sim.Proc) {
			var vec []uint64
			if i == root {
				vec = want
			}
			if err := qs[i].PostBcast(p, uint64(i), root, vec); err != nil {
				t.Errorf("rank %d PostBcast: %v", i, err)
				return
			}
			comp := cqs[i].Wait(p)
			if comp.Op != verbs.OpBcast || comp.Status != verbs.StatusSuccess {
				t.Errorf("rank %d completion %+v", i, comp)
			}
			got[i] = verbs.UnmarshalVec(comp.Payload)
		})
	}
	c.eng.Run()
	for i := 0; i < n; i++ {
		if len(got[i]) != len(want) {
			t.Fatalf("rank %d got %v, want %v", i, got[i], want)
		}
		for j := range want {
			if got[i][j] != want[j] {
				t.Errorf("rank %d word %d = %d, want %d", i, j, got[i][j], want[j])
			}
		}
	}
}

// allreduceRun posts one allreduce of vlen words on every rank and
// returns each rank's result. Rank r contributes vec[j] = r*1000 + j.
func allreduceRun(t *testing.T, c *collCluster, vlen int) [][]uint64 {
	t.Helper()
	n := len(c.nics)
	qs, cqs := c.join(t)
	got := make([][]uint64, n)
	for i := 0; i < n; i++ {
		i := i
		c.eng.Spawn("rank", func(p *sim.Proc) {
			vec := make([]uint64, vlen)
			for j := range vec {
				vec[j] = uint64(i*1000 + j)
			}
			if err := qs[i].PostAllreduce(p, uint64(i), vec); err != nil {
				t.Errorf("rank %d PostAllreduce: %v", i, err)
				return
			}
			comp := cqs[i].Wait(p)
			if comp.Op != verbs.OpAllreduce || comp.Status != verbs.StatusSuccess {
				t.Errorf("rank %d completion %+v", i, comp)
			}
			got[i] = verbs.UnmarshalVec(comp.Payload)
		})
	}
	c.eng.Run()
	return got
}

func checkAllreduce(t *testing.T, got [][]uint64, n, vlen int) {
	t.Helper()
	for j := 0; j < vlen; j++ {
		var want uint64
		for r := 0; r < n; r++ {
			want += uint64(r*1000 + j)
		}
		for r := 0; r < n; r++ {
			if len(got[r]) != vlen {
				t.Fatalf("rank %d result length %d, want %d", r, len(got[r]), vlen)
			}
			if got[r][j] != want {
				t.Errorf("rank %d word %d = %d, want %d", r, j, got[r][j], want)
			}
		}
	}
}

func TestCollAllreduceSum(t *testing.T) {
	// 5 ranks, 7 words: the vector does not divide evenly into chunks.
	c := newCollCluster(t, 5, topo.Spec{})
	got := allreduceRun(t, c, 7)
	checkAllreduce(t, got, 5, 7)
}

func TestCollAllreduceOnRingTopology(t *testing.T) {
	// The ring schedule on an actual ring fabric: each step's message is
	// a physical one-hop neighbor transfer.
	c := newCollCluster(t, 6, topo.Spec{Kind: topo.Ring})
	got := allreduceRun(t, c, 12)
	checkAllreduce(t, got, 6, 12)
}

func TestCollReduceScatterChunk(t *testing.T) {
	const n, vlen = 4, 8 // clen = 2
	c := newCollCluster(t, n, topo.Spec{})
	qs, cqs := c.join(t)
	got := make([][]uint64, n)
	for i := 0; i < n; i++ {
		i := i
		c.eng.Spawn("rank", func(p *sim.Proc) {
			vec := make([]uint64, vlen)
			for j := range vec {
				vec[j] = uint64(i*1000 + j)
			}
			if err := qs[i].PostReduceScatter(p, uint64(i), vec); err != nil {
				t.Errorf("rank %d PostReduceScatter: %v", i, err)
				return
			}
			comp := cqs[i].Wait(p)
			got[i] = verbs.UnmarshalVec(comp.Payload)
		})
	}
	c.eng.Run()
	clen := vlen / n
	for r := 0; r < n; r++ {
		ci := (r + 1) % n
		if len(got[r]) != clen {
			t.Fatalf("rank %d chunk length %d, want %d", r, len(got[r]), clen)
		}
		for k := 0; k < clen; k++ {
			j := ci*clen + k
			var want uint64
			for s := 0; s < n; s++ {
				want += uint64(s*1000 + j)
			}
			if got[r][k] != want {
				t.Errorf("rank %d chunk word %d = %d, want %d", r, k, got[r][k], want)
			}
		}
	}
}

func TestCollSingleRankCompletesImmediately(t *testing.T) {
	c := newCollCluster(t, 1, topo.Spec{})
	qs, cqs := c.join(t)
	var comps []verbs.Completion
	c.eng.Spawn("rank", func(p *sim.Proc) {
		for id, post := range []func() error{
			func() error { return qs[0].PostBarrier(p, 0) },
			func() error { return qs[0].PostBcast(p, 1, 0, []uint64{9}) },
			func() error { return qs[0].PostAllreduce(p, 2, []uint64{5, 6}) },
		} {
			if err := post(); err != nil {
				t.Errorf("post %d: %v", id, err)
				return
			}
			comps = append(comps, cqs[0].Wait(p))
		}
	})
	c.eng.Run()
	if len(comps) != 3 {
		t.Fatalf("completed %d ops, want 3", len(comps))
	}
	if v := verbs.UnmarshalVec(comps[2].Payload); len(v) != 2 || v[0] != 5 || v[1] != 6 {
		t.Errorf("single-rank allreduce result %v, want [5 6]", v)
	}
}

// Duplicate every frame in flight: the collective handlers are
// idempotent, so results and completion counts are unchanged.
func TestCollDuplicateFramesHarmless(t *testing.T) {
	const n, vlen = 4, 6
	c := newCollCluster(t, n, topo.Spec{})
	c.fab.Fault = func(fr *fabric.Frame, cnt uint64, now sim.Time) fabric.FaultDecision {
		return fabric.FaultDecision{Duplicate: true}
	}
	got := allreduceRun(t, c, vlen)
	checkAllreduce(t, got, n, vlen)
	var dups uint64
	for _, nic := range c.nics {
		dups += nic.Net.Get("coll.dup-drop")
	}
	if dups == 0 {
		t.Error("no duplicate frames were dropped — fault injection did not engage")
	}
}

// Host CPU stays out of the collective's critical path: each rank's host
// pays one post plus one completion interrupt, regardless of group size.
func TestCollZeroHostWorkBetweenPostAndCompletion(t *testing.T) {
	const n = 16
	c := newCollCluster(t, n, topo.Spec{})
	qs, cqs := c.join(t)
	for i := 0; i < n; i++ {
		i := i
		c.eng.Spawn("rank", func(p *sim.Proc) {
			if err := qs[i].PostBarrier(p, 1); err != nil {
				t.Errorf("rank %d: %v", i, err)
				return
			}
			cqs[i].Wait(p)
		})
	}
	c.eng.Run()
	// Budget per host: join (free), post (VerbsPostSendUS), the ISR
	// (HostIRQUS) and the waiter wake (VerbsWakeupUS) — ~9 us. A host
	// that participated in forwarding would burn far more.
	budget := params.US(params.VerbsPostSendUS + params.HostIRQUS + params.VerbsWakeupUS + 2)
	for i, h := range c.hosts {
		if busy := h.BusyTotal(); busy > budget {
			t.Errorf("host %d CPU busy %v, want <= %v (no host work between post and completion)", i, busy, budget)
		}
	}
}

// A crash mid-collective flushes the posted-but-incomplete operation.
func TestCollCrashFlushesPostedOp(t *testing.T) {
	c := newCollCluster(t, 2, topo.Spec{})
	qs, cqs := c.join(t)
	var comp verbs.Completion
	c.eng.Spawn("rank0", func(p *sim.Proc) {
		// Rank 1 never posts, so the barrier can only end by flush.
		if err := qs[0].PostBarrier(p, 77); err != nil {
			t.Errorf("PostBarrier: %v", err)
			return
		}
		comp = cqs[0].Wait(p)
	})
	c.eng.Spawn("fault", func(p *sim.Proc) {
		p.Sleep(1 * sim.Millisecond)
		c.nics[0].Crash()
	})
	c.eng.Run()
	if comp.WRID != 77 || comp.Status != verbs.StatusFlushed || comp.Op != verbs.OpBarrier {
		t.Errorf("flush completion %+v, want WRID 77 flushed barrier", comp)
	}
	// Posting after the crash is refused until restart.
	var postErr error
	c.eng.Spawn("rank0b", func(p *sim.Proc) { postErr = qs[0].PostBarrier(p, 78) })
	c.eng.Run()
	if postErr == nil {
		t.Error("post on crashed adapter succeeded")
	}
}

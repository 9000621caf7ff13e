package qpipnic_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/inet"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/verbs"
)

// Recycled ring messages under fault-injected duplication and delay, on
// every multi-hop topology, with the ranks on one engine and split across
// two: each adapter's free list is only ever touched from its own engine
// (the race detector is the judge — make check runs this under -race),
// every rank's vector is exact, the two placements agree on the simulated
// outcome, and every message handed out is back on a free list once the
// cluster quiesces.
func TestCollPooledMessagesUnderChaosSharded(t *testing.T) {
	const n, ops, words = 12, 4, 30
	plan := fault.Plan{Seed: 0xC011, DupProb: 0.2, DelayProb: 0.3, MaxExtraDelay: 12_000}
	for _, spec := range []topo.Spec{{Kind: topo.Ring}, {Kind: topo.Mesh, W: 4, H: 3}, {Kind: topo.FatTree}} {
		var ref string
		for _, shards := range []int{1, 2} {
			name := fmt.Sprintf("%v/%d-shard", spec.Kind, shards)
			c := core.NewShardedCluster(n, core.NodeConfig{QPIP: true, Topology: spec}, core.ShardPlan{Shards: shards})
			inj := c.InjectFaults(plan)
			addrs := make([]inet.Addr6, n)
			for i := range addrs {
				addrs[i] = c.Nodes[i].Addr6
			}
			for i := 0; i < n; i++ {
				i := i
				c.SpawnOn(i, fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
					nic := c.Nodes[i].QPIP
					cq := verbs.NewCQ(nic, 16)
					q, err := verbs.NewCollQ(nic, 1, i, addrs, cq)
					if err != nil {
						t.Errorf("%s rank %d: %v", name, i, err)
						return
					}
					for op := 0; op < ops; op++ {
						vec := make([]uint64, words)
						for j := range vec {
							vec[j] = uint64(i*1000 + op*100 + j)
						}
						if err := q.PostAllreduce(p, uint64(op), vec); err != nil {
							t.Errorf("%s rank %d op %d: %v", name, i, op, err)
							return
						}
						got := verbs.UnmarshalVec(cq.Wait(p).Payload)
						for j := 0; j < words; j++ {
							want := uint64(n*(n-1)/2*1000 + n*(op*100+j))
							if len(got) != words || got[j] != want {
								t.Errorf("%s rank %d op %d word %d: got %v, want %d", name, i, op, j, got, want)
								return
							}
						}
					}
				})
			}
			c.Run()
			if st := inj.Stats(); st.Dups == 0 || st.Delays == 0 {
				t.Fatalf("%s: fault plan did not engage: %+v", name, st)
			}
			live, dups := 0, uint64(0)
			for _, node := range c.Nodes {
				live += node.QPIP.CollMsgsLive()
				dups += node.QPIP.Net.Get("coll.dup-drop")
			}
			if live != 0 {
				t.Errorf("%s: %d ring messages outstanding at quiesce, want 0", name, live)
			}
			if dups == 0 {
				t.Errorf("%s: no duplicate reached the firmware", name)
			}
			got := fmt.Sprintf("end=%v fired=%d dup-drops=%d", c.EndTime(), c.FiredTotal(), dups)
			if ref == "" {
				ref = got
			} else if got != ref {
				t.Errorf("%s diverges from 1-shard: %s vs %s", name, got, ref)
			}
		}
	}
}

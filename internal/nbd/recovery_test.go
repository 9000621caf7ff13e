package nbd_test

import (
	"fmt"
	"testing"

	"repro/internal/buf"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/nbd"
	"repro/internal/params"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/verbs"
)

// chaosSeed fixes the fault plan and every backoff jitter decision in the
// recovery chaos tests; `make chaos` runs this matrix.
const chaosSeed = 0xC4A05

// chaosOutcome is everything one crash-chaos NBD run produces that must
// be identical across two runs of the same seed — the determinism half of
// the exactly-once property.
type chaosOutcome struct {
	trace    string   // injector fault log
	endTime  sim.Time // simulation drain instant
	sessions uint64
	replays  uint64
	crashes  uint64
	content  string // SHA-free content fingerprint of the readback
}

// runRecoveryChaos drives a patterned write/flush/readback NBD workload
// over the resilient QP transport while the plan injects faults, and
// asserts bytes-exactly-once: every chunk reads back exactly as written,
// no matter how many sessions and replays it took. shards 0 runs the
// plain sequential cluster; shards > 0 places the two nodes round-robin
// on that many engines, so at 2 client and server run on different ones.
func runRecoveryChaos(t *testing.T, plan fault.Plan, total, shards int) chaosOutcome {
	t.Helper()
	cfg := core.NodeConfig{QPIP: true, QPIPMTU: params.MTUJumbo}
	c := core.NewCluster(2, cfg)
	if shards > 0 {
		c = core.NewShardedCluster(2, cfg, core.ShardPlan{Shards: shards})
	}
	disk := storage.NewDisk(c.EngineOf(1), "server.disk", int64(total)+diskSize)
	maxMsg := c.Nodes[0].QPIP.MaxMessage()
	pol := verbs.BackoffPolicy{
		Base: 200 * sim.Microsecond, Max: 5 * sim.Millisecond,
		Attempts: 60, Seed: chaosSeed,
	}

	inj := c.InjectFaults(plan)

	c.SpawnOn(1, "server", func(p *sim.Proc) {
		scq := verbs.NewCQ(c.Nodes[1].QPIP, 1024)
		rcq := verbs.NewCQ(c.Nodes[1].QPIP, 1024)
		qp, err := verbs.NewQP(c.Nodes[1].QPIP, verbs.QPConfig{
			Transport: verbs.Reliable, SendCQ: scq, RecvCQ: rcq,
			SendDepth: 512, RecvDepth: 512,
		})
		if err != nil {
			t.Errorf("server QP: %v", err)
			return
		}
		nbd.ServeQPResilient(p, c.Nodes[1].CPU, c.Nodes[1].QPIP, nbdPort,
			qp, scq, rcq, maxMsg, disk, pol)
	})

	var out chaosOutcome
	var cli *nbd.QPClient
	c.SpawnOn(0, "client", func(p *sim.Proc) {
		scq := verbs.NewCQ(c.Nodes[0].QPIP, 1024)
		rcq := verbs.NewCQ(c.Nodes[0].QPIP, 1024)
		qp, err := verbs.NewQP(c.Nodes[0].QPIP, verbs.QPConfig{
			Transport: verbs.Reliable, SendCQ: scq, RecvCQ: rcq,
			SendDepth: 512, RecvDepth: 512,
		})
		if err != nil {
			t.Errorf("client QP: %v", err)
			return
		}
		if err := qp.Reconnect(p, c.Nodes[1].Addr6, nbdPort, pol); err != nil {
			t.Errorf("rendezvous: %v", err)
			return
		}
		cli = nbd.NewQPClient(p, c.Nodes[0].CPU, qp, scq, rcq,
			maxMsg, int64(total)+diskSize, params.NBDQueueDepth, &nbd.RecoverySpec{
				Raddr: c.Nodes[1].Addr6, Rport: nbdPort, Backoff: pol,
				Timeout: 250 * sim.Millisecond,
			})

		const chunk = 64 << 10
		for off := 0; off < total; off += chunk {
			if err := cli.Write(p, int64(off), buf.Pattern(chunk, byte(off/chunk))); err != nil {
				t.Errorf("write at %d: %v", off, err)
				return
			}
		}
		if err := cli.Flush(p); err != nil {
			t.Errorf("flush: %v", err)
			return
		}
		for off := 0; off < total; off += chunk {
			b, err := cli.Read(p, int64(off), chunk)
			if err != nil {
				t.Errorf("read at %d: %v", off, err)
				return
			}
			if !buf.Equal(b, buf.Pattern(chunk, byte(off/chunk))) {
				t.Errorf("bytes at %d corrupted after recovery", off)
				return
			}
			out.content += fmt.Sprintf("%d:%x ", off, b.Len())
		}
	})
	c.Run()

	out.trace = inj.TraceString()
	out.endTime = c.EndTime()
	out.sessions = cli.Sessions()
	out.replays = cli.Replays()
	out.crashes = inj.Stats().Crashes
	return out
}

// chaosPlans is the fixed-seed crash/flap/partition matrix; each entry
// must recover to byte-exact content and replay deterministically.
func chaosPlans() map[string]fault.Plan {
	return map[string]fault.Plan{
		"crash-server": {
			Seed:    chaosSeed,
			Crashes: []fault.Crash{{Node: 1, At: 5 * sim.Millisecond, Down: 10 * sim.Millisecond}},
		},
		"crash-client": {
			Seed:    chaosSeed,
			Crashes: []fault.Crash{{Node: 0, At: 8 * sim.Millisecond, Down: 10 * sim.Millisecond}},
		},
		"crash-both": {
			Seed: chaosSeed,
			Crashes: []fault.Crash{
				{Node: 1, At: 5 * sim.Millisecond, Down: 10 * sim.Millisecond},
				{Node: 0, At: 30 * sim.Millisecond, Down: 5 * sim.Millisecond},
			},
		},
		"flap": {
			Seed:  chaosSeed,
			Flaps: fault.FlapTrain(1, 5*sim.Millisecond, 2*sim.Millisecond, 2*sim.Millisecond, 5),
		},
		"partition": {
			Seed: chaosSeed,
			Partitions: []fault.Partition{
				{Src: 0, Dst: 1, From: 5 * sim.Millisecond, To: 25 * sim.Millisecond},
			},
		},
		"crash-plus-drops": {
			Seed:      chaosSeed,
			DropProb:  0.01,
			SkipFirst: 8,
			Crashes:   []fault.Crash{{Node: 1, At: 5 * sim.Millisecond, Down: 10 * sim.Millisecond}},
		},
	}
}

// TestRecoveryChaosExactlyOnce runs the crash/flap/partition matrix:
// every scenario must come back byte-exact (runRecoveryChaos fails the
// test otherwise) and must actually have exercised recovery where a crash
// was scheduled.
func TestRecoveryChaosExactlyOnce(t *testing.T) {
	for name, plan := range chaosPlans() {
		t.Run(name, func(t *testing.T) {
			out := runRecoveryChaos(t, plan, 1<<20, 0)
			if len(plan.Crashes) > 0 {
				if out.crashes == 0 {
					t.Error("plan scheduled crashes but none fired")
				}
				if out.sessions < 2 {
					t.Errorf("sessions = %d, want at least one recovery", out.sessions)
				}
			}
		})
	}
}

// sameOutcome fails t unless two runs of one plan agree on everything a
// chaos run produces: fault trace, drain instant, recovery work (sessions,
// replays), crash count and readback content.
func sameOutcome(t *testing.T, a, b chaosOutcome, labelA, labelB string) {
	t.Helper()
	if a.trace != b.trace {
		t.Errorf("fault traces diverge:\n--- %s ---\n%s\n--- %s ---\n%s", labelA, a.trace, labelB, b.trace)
	}
	a.trace, b.trace = "", ""
	if a != b {
		t.Errorf("outcomes diverge:\n%s %+v\n%s %+v", labelA, a, labelB, b)
	}
}

// TestRecoveryChaosDeterministic pins the replay property: two runs of
// the same crash seed produce identical fault traces, identical recovery
// work (sessions, replays), identical content, and drain at the identical
// simulated instant.
func TestRecoveryChaosDeterministic(t *testing.T) {
	for _, name := range []string{"crash-server", "crash-both", "crash-plus-drops"} {
		t.Run(name, func(t *testing.T) {
			plan := chaosPlans()[name]
			a := runRecoveryChaos(t, plan, 1<<20, 0)
			b := runRecoveryChaos(t, plan, 1<<20, 0)
			sameOutcome(t, a, b, "run A", "run B")
		})
	}
}

// TestRecoveryChaosSharded runs the whole crash/flap/partition matrix with
// client and server on different engines: crashes fire on their node's
// engine, the reader and watchdog start on the client's, the disk lives
// on the server's, and every outcome is identical to the sequential run.
func TestRecoveryChaosSharded(t *testing.T) {
	for name, plan := range chaosPlans() {
		t.Run(name, func(t *testing.T) {
			seq := runRecoveryChaos(t, plan, 1<<20, 0)
			two := runRecoveryChaos(t, plan, 1<<20, 2)
			sameOutcome(t, seq, two, "sequential", "2-shard")
		})
	}
}

// TestRecoveryFaultFreeMatchesPlainClient pins the zero-cost property:
// with no faults injected, the resilient client completes the same
// workload with one session, zero replays, and no watchdog interference.
func TestRecoveryFaultFreeMatchesPlainClient(t *testing.T) {
	out := runRecoveryChaos(t, fault.Plan{Seed: chaosSeed}, 1<<20, 0)
	if out.sessions != 1 || out.replays != 0 {
		t.Errorf("fault-free run used sessions=%d replays=%d, want 1/0",
			out.sessions, out.replays)
	}
	if out.crashes != 0 {
		t.Errorf("fault-free run counted %d crashes", out.crashes)
	}
}

package fault

import (
	"sort"

	"repro/internal/sim"
)

// This file extends the fault layer from link-level adversity (drops,
// flaps) to node-level adversity: adapter crash/restart windows,
// asymmetric partitions, and sustained-flap trains (DESIGN §13). Crash
// scheduling is time-driven (engine timers), not frame-driven, so it
// composes with the per-frame Decide pipeline without perturbing frame
// ordinals.

// Crash is one scheduled adapter reboot: the node's NIC crashes at At
// (wiping NIC-resident TCBs, doorbells, and firmware state) and restarts
// after Down. A zero Down restarts the adapter at the next instant —
// "power blink" — while a Down of forever (1<<62) models a dead node.
type Crash struct {
	// Node indexes Plan-level crash targets (ScheduleCrashesOn maps it
	// onto the Rebootable passed at the same position).
	Node int
	At   sim.Time
	Down sim.Time
}

// Partition is one scheduled one-directional connectivity hole: frames
// from attachment Src to attachment Dst during [From, To) are lost.
// -1 wildcards either side. Two mirrored entries model a symmetric
// partition; a single entry is the asymmetric case (A hears B, B does not
// hear A) that link-level flaps cannot express.
type Partition struct {
	Src, Dst int
	From, To sim.Time
}

// FlapTrain builds n back-to-back down windows on port: down for downDur,
// up for upDur, repeating — the sustained-flap scenario where a link
// bounces faster than connections can stabilize.
func FlapTrain(port int, start, downDur, upDur sim.Time, n int) []Flap {
	flaps := make([]Flap, 0, n)
	at := start
	for i := 0; i < n; i++ {
		flaps = append(flaps, Flap{Port: port, From: at, To: at + downDur})
		at += downDur + upDur
	}
	return flaps
}

// Rebootable is an adapter that can crash and restart — qpipnic.NIC
// implements it. Crash wipes device-resident state and fails every QP;
// Restart brings the device back with a fresh boot epoch.
type Rebootable interface {
	Crash()
	Restart()
}

// partitioned reports whether a frame from src to dst at time now falls in
// a partition hole.
func (p *Plan) partitioned(now sim.Time, src, dst int) bool {
	for _, pa := range p.Partitions {
		if now < pa.From || now >= pa.To {
			continue
		}
		if (pa.Src < 0 || pa.Src == src) && (pa.Dst < 0 || pa.Dst == dst) {
			return true
		}
	}
	return false
}

// ScheduleCrashesOn installs the plan's crash windows, one engine per
// target: each Crash entry's Node indexes into targets, and that node's
// crash and restart events run on engs[Node], so a sharded run reboots
// adapters on their own shard. Crash/restart instants are logged as fault
// events (kinds "crash" and "restart") in the node's private crash lane,
// so two runs of the same plan — sequential or sharded — produce
// identical trace strings. Entries are scheduled in (At, Node) order so
// coincident crashes fire deterministically.
func (in *Injector) ScheduleCrashesOn(engs []*sim.Engine, targets ...Rebootable) {
	if len(engs) != len(targets) {
		panic("fault: ScheduleCrashesOn needs one engine per target")
	}
	if len(targets) > 0 {
		in.crashLane(len(targets) - 1) // presize: no lane growth once shards run
	}
	crashes := append([]Crash(nil), in.plan.Crashes...)
	sort.Slice(crashes, func(i, j int) bool {
		if crashes[i].At != crashes[j].At {
			return crashes[i].At < crashes[j].At
		}
		return crashes[i].Node < crashes[j].Node
	})
	for _, c := range crashes {
		if c.Node < 0 || c.Node >= len(targets) {
			continue
		}
		t := targets[c.Node]
		eng := engs[c.Node]
		node := c.Node
		down := c.Down
		eng.At(c.At, "fault.crash", func() {
			ln := &in.crashLanes[node]
			ln.log = append(ln.log, Event{At: eng.Now(), Src: node, Dst: node, Kind: "crash"})
			t.Crash()
			eng.After(down, "fault.restart", func() {
				ln.log = append(ln.log, Event{At: eng.Now(), Src: node, Dst: node, Kind: "restart"})
				t.Restart()
			})
		})
	}
}

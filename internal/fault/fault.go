// Package fault is a deterministic, seeded fault-injection layer for the
// simulated fabrics. A Plan describes what real networks do to frames —
// loss (probabilistic or patterned), bit corruption, duplication, extra
// delay/jitter, and scheduled link down/up flaps — and an Injector applies
// it to a fabric.Fabric through the generalized fault hook.
//
// Determinism is the point: every per-frame decision is a pure function of
// (Plan.Seed, frame ordinal), computed with a self-contained splitmix64
// generator, so the same seed reproduces the identical fault sequence —
// and, because the simulation engine is itself deterministic, the
// identical end-to-end event trace. Chaos tests rely on this to assert the
// DESIGN §8 invariants under randomized-but-reproducible adversity.
//
// Corruption defaults to single-bit flips. The Internet checksum is a
// 16-bit ones'-complement sum, which provably detects any single-bit
// error; multi-bit flips can cancel (the same bit position in two words),
// so plans that need the "corrupted frames are never delivered" guarantee
// keep CorruptBits at 1. Fields no checksum covers (the IPv6 hop limit)
// may still pass through corrupted — as on real networks — without
// affecting payload integrity.
package fault

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/buf"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Flap is one scheduled link-down window: frames touching Port (as source
// or destination attachment; -1 matches every port) during [From, To) are
// lost. Two windows back to back model down/up/down cycling.
type Flap struct {
	Port     int
	From, To sim.Time
}

// Plan is a seeded, deterministic description of the faults to inject.
// The zero value injects nothing.
type Plan struct {
	// Seed drives every probabilistic decision. Two runs with the same
	// plan produce the same per-frame decisions.
	Seed uint64

	// DropProb is the probability a frame is lost in transit.
	DropProb float64
	// DropEvery, when > 0, deterministically drops every DropEvery-th
	// frame (ordinals n with (n+1)%DropEvery == 0), independent of Seed.
	DropEvery uint64
	// DropFrames lists explicit frame ordinals to drop (scripted loss).
	DropFrames []uint64

	// CorruptProb is the probability a frame's bytes are damaged in
	// transit. The receiver's real checksums are what catch it.
	CorruptProb float64
	// CorruptBits is how many bit flips a corrupted frame suffers
	// (default 1; see the package comment on checksum detectability).
	CorruptBits int
	// HeaderOnly restricts flips to the IP and transport headers, leaving
	// (possibly virtual) payloads untouched.
	HeaderOnly bool

	// DupProb is the probability a delivered frame arrives twice.
	DupProb float64

	// DelayProb is the probability a frame suffers extra queueing delay,
	// uniform in (0, MaxExtraDelay].
	DelayProb     float64
	MaxExtraDelay sim.Time

	// SkipFirst exempts the first SkipFirst frames from probabilistic
	// faults (handshake grace); patterned drops and flaps still apply.
	SkipFirst uint64

	// Flaps are scheduled link-down windows.
	Flaps []Flap

	// Partitions are scheduled one-directional connectivity holes
	// (crash.go); asymmetric by construction, unlike Flaps.
	Partitions []Partition

	// Crashes are scheduled adapter reboots, applied with
	// Injector.ScheduleCrashesOn (crash.go). They are time-driven, not
	// frame-driven, so they do not consume frame ordinals.
	Crashes []Crash
}

// Decision is the fault outcome for one frame. The zero value passes the
// frame through untouched.
type Decision struct {
	Drop    bool
	Flapped bool // Drop caused by a link-down window
	// CorruptBits are bit offsets (from the start of the corruptible
	// region) to flip in a cloned copy of the frame.
	CorruptBits []int
	Duplicate   bool
	ExtraDelay  sim.Time
}

// Event is one applied fault, recorded for trace comparison across runs.
type Event struct {
	N        uint64
	At       sim.Time
	Src, Dst int
	Kind     string // "drop", "flap", "partition", "corrupt", "dup", "delay", "crash", "restart"
	Arg      int64  // bit offset (corrupt) or ns (delay)
}

func (e Event) String() string {
	return fmt.Sprintf("n=%d t=%d %d->%d %s(%d)", e.N, int64(e.At), e.Src, e.Dst, e.Kind, e.Arg)
}

// Stats counts applied faults by kind: the logged Events, tallied.
type Stats struct {
	Drops, FlapDrops, Corrupts, Dups, Delays uint64
	PartitionDrops, Crashes                  uint64
}

// lane is one source's private fault record. Frame lanes are indexed by
// source attachment, crash lanes by node — each written only from that
// source's (or node's) shard engine, so sharded runs never share a lane.
type lane struct {
	log []Event
}

// Injector applies a Plan to frames. It is attached to a fabric with
// Attach, or driven directly through Decide by pure-protocol harnesses.
//
// All mutable state is partitioned into per-source lanes: frame ordinals,
// the decision RNG stream and the event log are all keyed by
// the sending attachment. That makes every decision a pure function of
// (Plan, src, per-src ordinal, send time) — independent of how frames from
// different sources interleave — which is what lets a sharded run (each
// shard advancing its own sources through an epoch) reproduce the
// sequential run's fault sequence exactly. Events and TraceString present
// the lanes merged into one canonical order.
type Injector struct {
	plan       Plan
	frameLanes []lane // indexed by source attachment
	crashLanes []lane // indexed by crash target node
}

// NewInjector builds an injector for plan.
func NewInjector(plan Plan) *Injector {
	if plan.CorruptBits <= 0 {
		plan.CorruptBits = 1
	}
	return &Injector{plan: plan}
}

// frameLane returns src's lane, growing the table as needed.
func (in *Injector) frameLane(src int) *lane {
	for src >= len(in.frameLanes) {
		in.frameLanes = append(in.frameLanes, lane{})
	}
	return &in.frameLanes[src]
}

func (in *Injector) crashLane(node int) *lane {
	for node >= len(in.crashLanes) {
		in.crashLanes = append(in.crashLanes, lane{})
	}
	return &in.crashLanes[node]
}

// Stats reports applied-fault counts, tallied from the lane logs.
func (in *Injector) Stats() Stats {
	var s Stats
	for _, set := range [][]lane{in.frameLanes, in.crashLanes} {
		for i := range set {
			for _, e := range set[i].log {
				switch e.Kind {
				case "drop":
					s.Drops++
				case "flap":
					s.FlapDrops++
				case "partition":
					s.PartitionDrops++
				case "corrupt":
					s.Corrupts++
				case "dup":
					s.Dups++
				case "delay":
					s.Delays++
				case "crash":
					s.Crashes++
				}
			}
		}
	}
	return s
}

// eventClass separates frame-lane kinds from crash-lane kinds so the
// canonical merge has a total order even when a node's crash coincides with
// one of its frames.
func eventClass(kind string) int {
	if kind == "crash" || kind == "restart" {
		return 1
	}
	return 0
}

// Events returns the applied-fault log in canonical order: sorted by
// (time, source, kind class), with each lane's internal order preserved.
// The canonical order is a pure function of the per-lane logs, so
// sequential and sharded runs of the same plan render identical traces.
func (in *Injector) Events() []Event {
	var all []Event
	for _, set := range [][]lane{in.frameLanes, in.crashLanes} {
		for i := range set {
			all = append(all, set[i].log...)
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].At != all[j].At {
			return all[i].At < all[j].At
		}
		if all[i].Src != all[j].Src {
			return all[i].Src < all[j].Src
		}
		return eventClass(all[i].Kind) < eventClass(all[j].Kind)
	})
	return all
}

// TraceString renders the fault log, one event per line — two runs of the
// same seeded simulation must produce byte-identical trace strings,
// regardless of shard count.
func (in *Injector) TraceString() string {
	var b strings.Builder
	for _, e := range in.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// splitmix64 advances a splitmix64 state and returns the next value.
// Self-contained so fault sequences are stable across Go releases
// (math/rand's stream is not part of its compatibility promise).
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// frameRNG derives an independent generator for frame n, so decisions do
// not depend on the interleaving of frames across links.
func frameRNG(seed, n uint64) uint64 {
	s := seed ^ (n+1)*0x9e3779b97f4a7c15
	splitmix64(&s)
	return s
}

// laneSeed decorrelates the per-source decision streams: frame n from
// source 2 must not suffer the same faults as frame n from source 3.
func laneSeed(seed uint64, src int) uint64 {
	return seed ^ (uint64(src)+1)*0x9e3779b97f4a7c15
}

// roll returns a uniform float64 in [0, 1).
func roll(s *uint64) float64 { return float64(splitmix64(s)>>11) / (1 << 53) }

// intn returns a uniform int in [0, n).
func intn(s *uint64, n int) int {
	if n <= 0 {
		return 0
	}
	return int(splitmix64(s) % uint64(n))
}

// flapped reports whether a frame touching src or dst at time now falls in
// a down window.
func (p *Plan) flapped(now sim.Time, src, dst int) bool {
	for _, f := range p.Flaps {
		if now < f.From || now >= f.To {
			continue
		}
		if f.Port < 0 || f.Port == src || f.Port == dst {
			return true
		}
	}
	return false
}

// Decide computes the fault decision for frame ordinal n sent at time now
// between attachments src and dst. The ordinal counts frames from THIS
// source (per-source, matching the fabric's per-port counters), so the
// decision stream of one source is untouched by traffic on others.
// corruptible is the number of bytes bit flips may land in (0 disables
// corruption for this frame). Each decision is logged in src's lane;
// Decide must be called at most once per (src, n).
func (in *Injector) Decide(n uint64, now sim.Time, src, dst int, corruptible int) Decision {
	p := &in.plan
	ln := in.frameLane(src)
	var d Decision
	note := func(kind string, arg int64) {
		ln.log = append(ln.log, Event{N: n, At: now, Src: src, Dst: dst, Kind: kind, Arg: arg})
	}
	// Scheduled and patterned faults fire regardless of SkipFirst.
	if p.flapped(now, src, dst) {
		d.Drop, d.Flapped = true, true
		note("flap", 0)
		return d
	}
	if p.partitioned(now, src, dst) {
		d.Drop, d.Flapped = true, true
		note("partition", 0)
		return d
	}
	if p.DropEvery > 0 && (n+1)%p.DropEvery == 0 {
		d.Drop = true
		note("drop", 0)
		return d
	}
	for _, fn := range p.DropFrames {
		if fn == n {
			d.Drop = true
			note("drop", 0)
			return d
		}
	}
	if n < p.SkipFirst {
		return d
	}
	rng := frameRNG(laneSeed(p.Seed, src), n)
	if p.DropProb > 0 && roll(&rng) < p.DropProb {
		d.Drop = true
		note("drop", 0)
		return d
	}
	if p.CorruptProb > 0 && corruptible > 0 && roll(&rng) < p.CorruptProb {
		for i := 0; i < p.CorruptBits; i++ {
			bit := intn(&rng, corruptible*8)
			d.CorruptBits = append(d.CorruptBits, bit)
			note("corrupt", int64(bit))
		}
	}
	if p.DupProb > 0 && roll(&rng) < p.DupProb {
		d.Duplicate = true
		note("dup", 0)
	}
	if p.DelayProb > 0 && p.MaxExtraDelay > 0 && roll(&rng) < p.DelayProb {
		d.ExtraDelay = sim.Time(intn(&rng, int(p.MaxExtraDelay))) + 1
		note("delay", int64(d.ExtraDelay))
	}
	return d
}

// Attach installs the injector as fab's fault hook. The fabric supplies
// the frame's per-source ordinal and the sending engine's clock (flap and
// partition windows are evaluated against the source shard's time).
func (in *Injector) Attach(fab *fabric.Fabric) {
	fab.Fault = func(fr *fabric.Frame, n uint64, now sim.Time) fabric.FaultDecision {
		return in.Apply(fr, n, now)
	}
}

// Apply converts a Decide outcome into the fabric-level decision,
// materializing a corrupted clone of the frame when bits are flipped.
func (in *Injector) Apply(fr *fabric.Frame, n uint64, now sim.Time) fabric.FaultDecision {
	corruptible := 0
	pkt, isPkt := fr.Payload.(*wire.Packet)
	if isPkt {
		if in.plan.HeaderOnly {
			corruptible = len(pkt.IPHdr) + len(pkt.L4Hdr)
		} else {
			corruptible = pkt.Len()
		}
	}
	d := in.Decide(n, now, fr.Src, fr.Dst, corruptible)
	fd := fabric.FaultDecision{
		Drop:       d.Drop,
		Duplicate:  d.Duplicate,
		ExtraDelay: d.ExtraDelay,
	}
	if len(d.CorruptBits) > 0 && isPkt {
		clone := *fr
		clone.Payload = corruptPacket(pkt, d.CorruptBits)
		fd.Replace = &clone
	}
	return fd
}

// corruptPacket clones pkt and flips the given bits. Cloning matters: the
// original packet's payload Buf is shared with the sender's retransmission
// flight queue, and damaging it would corrupt the retransmission too —
// the wire damages the copy in transit, not the sender's memory.
func corruptPacket(pkt *wire.Packet, bits []int) *wire.Packet {
	clone := &wire.Packet{
		IsV4:    pkt.IsV4,
		IPHdr:   append([]byte(nil), pkt.IPHdr...),
		L4Hdr:   append([]byte(nil), pkt.L4Hdr...),
		Payload: pkt.Payload,
		Epoch:   pkt.Epoch,
	}
	var pay []byte
	ipLen, l4Len := len(clone.IPHdr), len(clone.L4Hdr)
	for _, bit := range bits {
		idx, mask := bit/8, byte(1)<<(bit%8)
		switch {
		case idx < ipLen:
			clone.IPHdr[idx] ^= mask
		case idx < ipLen+l4Len:
			clone.L4Hdr[idx-ipLen] ^= mask
		default:
			off := idx - ipLen - l4Len
			if off >= pkt.Payload.Len() {
				continue
			}
			if pay == nil {
				pay = append([]byte(nil), pkt.Payload.Data()...)
			}
			pay[off] ^= mask
		}
	}
	if pay != nil {
		clone.Payload = buf.Bytes(pay)
	}
	return clone
}

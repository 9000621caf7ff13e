package qpipnic

// The collective engine (DESIGN §15): barrier, broadcast and ring
// reductions executed entirely by adapter firmware. The host's single
// doorbell (verbs.CollQ.Post*) hands the WR to the adapter; from there
// every gather, release, forward and combine step runs on the 133 MHz
// firmware processor and the fabric, with the host touched exactly once
// more — the completion interrupt. This is the natural endpoint of the
// paper's offload argument: once the whole transport lives on the NIC,
// multi-party communication patterns can too, removing per-hop host
// wakeups from the critical path.
//
// Schedules:
//
//   - barrier: a binomial tree rooted at rank 0 (parent (r-1)/2, children
//     2r+1, 2r+2). ARRIVE messages flow up once a rank has posted and
//     heard from both children; the root then floods RELEASE down, and
//     each rank completes on release (the root on its own gather).
//   - bcast: the same tree rotated so the WR's root is rank 0; DATA
//     flows down, each rank forwards on first receipt and completes once
//     it both holds the data and has posted.
//   - allreduce: the standard ring schedule — size-1 reduce-scatter
//     steps (at step s rank r sends chunk (r-s) mod size and combines
//     arriving chunk (r-s-1) mod size), then size-1 allgather steps
//     (sends (r+1-s') mod size, stores (r-s') mod size).
//     reduce-scatter runs only the first phase.
//
// Determinism and fault tolerance: operations pair by a per-group
// sequence number (posting order, the collective calling convention), so
// messages arriving before the local post wait in SRAM — ARRIVE/DATA
// apply immediately to op state, ring steps park in a per-step stash and
// are consumed strictly in step order. Every handler is idempotent
// (fabric fault injection may duplicate frames): arrivals are flags,
// data/release are first-wins, stale ring steps are dropped. Drops are
// NOT tolerated — there is no collective retransmit layer — so chaos
// plans over collectives are restricted to delay and duplication.
// Op state lives in a window indexed by sequence above a done floor:
// every op below the floor is finished, so a late duplicate of one is
// refused (counted in coll.dup-drop, as a done op's duplicate of every
// kind is) without any state of its own, and the floor rises past the
// finished ops at the bottom of the window. A finished op inside the
// window keeps its done flag as the fence; its buffers go back to its
// group's free lists at once, and its state when the floor passes it.
//
// Like the rest of the firmware the steady state allocates nothing per
// message (DESIGN §10.2): ring messages and the receive-stage runners
// recycle through per-adapter free lists, the working vector and step
// stash through per-group ones.

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/fabric"
	"repro/internal/inet"
	"repro/internal/params"
	"repro/internal/pool"
	"repro/internal/verbs"
)

// Collective message kinds.
const (
	collArrive  uint8 = iota // barrier gather, child -> parent
	collRelease              // barrier release, parent -> child
	collData                 // bcast payload, parent -> child
	collRing                 // ring reduction step, rank r -> r+1
)

// collMsg is one collective wire message, carried as a fabric payload
// (demultiplexed in receiveFrame ahead of the inter-network stack).
type collMsg struct {
	group uint16
	seq   uint32 // per-group op sequence (posting order)
	kind  uint8
	root  int // bcast tree rotation (collData)
	step  int // ring step index (collRing)
	from  int // sender rank
	vec   []uint64

	// Ring messages are recycled (getCollMsg). refs counts the holders —
	// fabric deliveries still to come, plus the stash slot a parked step
	// occupies — and the last Release parks the message, vec's backing
	// array included, back on the free list of nic, the adapter that
	// allocated it. refs < 0 marks a message sitting on a free list. Tree
	// messages are plain literals; their refs == 0 makes Retain and
	// Release no-ops.
	refs int32
	nic  *NIC
}

// getCollMsg hands out a recycled message holding one reference, with its
// word store emptied but kept.
//
//qpip:hotpath
func (n *NIC) getCollMsg() *collMsg {
	m := pool.Take(&n.collFree)
	if m == nil {
		m = new(collMsg)
	}
	m.refs, m.nic = 1, n
	n.collLive++
	return m
}

// Retain adds a holder. The fabric calls it when fault injection fans one
// frame out into two deliveries.
func (m *collMsg) Retain() {
	if m.refs > 0 {
		m.refs++
	}
}

// Release drops one holder; the last one recycles the message. Every
// delivered message is released exactly once by whatever consumes the
// delivery — the FSM step that applied or rejected it, the drain that
// combined a parked step, the crash path — and by the fabric itself for
// a frame it swallows.
//
//qpip:hotpath
func (m *collMsg) Release() {
	if m.refs == 0 {
		return
	}
	if m.refs < 0 {
		panic("qpipnic: collective message released after its last reference")
	}
	m.refs--
	if m.refs > 0 {
		return
	}
	n := m.nic
	m.refs, m.nic, m.vec = -1, nil, m.vec[:0]
	n.collLive--
	n.collFree = append(n.collFree, m)
}

// collDelivery is one delivered message waiting out its firmware FSM
// stage. A duplicated frame delivers one message twice, so the
// per-delivery state (the group as it was on arrival) lives here, not on
// the message.
type collDelivery struct {
	g *collGroup
	m *collMsg
}

// collStep is the stage completion: step the FSM — unless the adapter
// crashed or the group was re-joined while the stage was queued, in which
// case the message dies here. A message of an op below the group's floor
// is a duplicate of a finished op.
//
//qpip:hotpath
func (n *NIC) collStep(d collDelivery) {
	g, m := d.g, d.m
	if n.down || n.collGroups[m.group] != g {
		m.Release()
		return
	}
	op := g.op(m.seq)
	if op == nil {
		*n.collDupDrop++
		m.Release()
		return
	}
	n.collDispatch(g, op, m)
}

// collWireBytes is the on-wire size of a collective message: a 16-byte
// control header, 8 bytes per payload word, and the Myrinet route/CRC
// framing every packet carries.
func collWireBytes(words int) int {
	return 16 + 8*words + params.MyrinetHeaderBytes
}

// collGroup is the adapter-resident state of one group membership.
type collGroup struct {
	id      uint16
	rank    int
	cq      *verbs.CQ
	atts    []int // fabric attachment per rank
	nextSeq uint32
	// ops is the window of operations from floor up: ops[i] is sequence
	// floor+i, nil until a post or a message touches it. Every operation
	// below floor is finished. opFree recycles the state of the
	// operations the floor passed.
	floor  uint32
	ops    []*collOp
	opFree []*collOp

	// Buffers of finished ring operations, reused by the next ones: the
	// group holds O(outstanding operations) of buffer, however many it has
	// run.
	vecFree   [][]uint64
	stashFree [][]*collMsg
}

func (g *collGroup) size() int { return len(g.atts) }

// collOp is one collective operation's FSM state. Created on first touch
// (local post or first message), retained while in the group's window so
// duplicate frames of a finished op hit the done flag; its buffers are
// not (collRetire).
type collOp struct {
	seq    uint32
	posted bool
	done   bool
	wr     verbs.CollWR

	// Barrier tree state.
	arrived [2]bool // per-child ARRIVE flags
	upSent  bool

	// Bcast state.
	hasData bool
	data    []uint64

	// Ring state.
	vec      []uint64 // working vector, zero-padded to size*clen words
	vlen     int      // original vector length
	clen     int      // chunk length in words
	nextStep int
	// stash parks steps that arrived ahead of their turn, indexed by step
	// (steps are consumed strictly in order, so a slot is written once and
	// read once). Each parked message holds a reference.
	stash []*collMsg
}

// op returns the state of operation seq, created on first touch, or nil
// when seq is below the floor: that operation finished.
func (g *collGroup) op(seq uint32) *collOp {
	if seq < g.floor {
		return nil
	}
	i := int(seq - g.floor)
	for len(g.ops) <= i {
		g.ops = append(g.ops, nil)
	}
	o := g.ops[i]
	if o == nil {
		if o = pool.Take(&g.opFree); o == nil {
			o = new(collOp)
		}
		o.seq = seq
		g.ops[i] = o
	}
	return o
}

// advance raises the floor past the finished operations at the bottom of
// the window and recycles their state, which collRetire already emptied.
func (g *collGroup) advance() {
	k := 0
	for k < len(g.ops) && g.ops[k] != nil && g.ops[k].done {
		*g.ops[k] = collOp{}
		g.opFree = append(g.opFree, g.ops[k])
		k++
	}
	if k == 0 {
		return
	}
	rest := copy(g.ops, g.ops[k:])
	clear(g.ops[rest:])
	g.ops = g.ops[:rest]
	g.floor += uint32(k)
}

// ringVec returns a zeroed working vector of n words. A recycled vector
// too short for this operation is dropped, not kept, so the list stays as
// long as the number of operations outstanding at once.
func (g *collGroup) ringVec(n int) []uint64 {
	if k := len(g.vecFree); k > 0 {
		v := g.vecFree[k-1]
		g.vecFree[k-1] = nil
		g.vecFree = g.vecFree[:k-1]
		if cap(v) >= n {
			v = v[:n]
			clear(v)
			return v
		}
	}
	return make([]uint64, n)
}

// ringStash returns an empty step stash sized for the longest schedule.
func (g *collGroup) ringStash() []*collMsg {
	if k := len(g.stashFree); k > 0 {
		st := g.stashFree[k-1]
		g.stashFree[k-1] = nil
		g.stashFree = g.stashFree[:k-1]
		return st
	}
	return make([]*collMsg, collRingSteps(verbs.OpAllreduce, g.size()))
}

// collRetire strips a finished (or flushed) op down to its duplicate
// fence: parked steps are released, the buffers go back to the group, and
// the host's vector is let go.
func (g *collGroup) collRetire(op *collOp) {
	if op.stash != nil {
		for i, m := range op.stash {
			if m != nil {
				m.Release()
				op.stash[i] = nil
			}
		}
		g.stashFree = append(g.stashFree, op.stash)
		op.stash = nil
	}
	if op.vec != nil {
		g.vecFree = append(g.vecFree, op.vec)
		op.vec = nil
	}
	op.data, op.wr.Vec = nil, nil
}

// retireAll retires every operation of a group that is about to vanish
// (crash, or a re-join replacing it). Steps can be parked on operations
// the host never posted, at sequences past nextSeq, so this walks the
// whole window.
func (g *collGroup) retireAll() {
	for _, op := range g.ops {
		if op != nil {
			g.collRetire(op)
		}
	}
}

func collMod(a, n int) int { return ((a % n) + n) % n }

// collChildren reports rank r's children in the tree rotated so root is
// rank 0 (virtual rank vr = (r-root) mod size, children 2vr+1, 2vr+2): the
// first k entries of the result.
func collChildren(r, root, size int) (out [2]int, k int) {
	vr := collMod(r-root, size)
	for vc := 2*vr + 1; vc <= 2*vr+2 && vc < size; vc++ {
		out[k] = collMod(vc+root, size)
		k++
	}
	return out, k
}

// collParent reports rank r's parent in the rotated tree; r == root has
// none (returns -1).
func collParent(r, root, size int) int {
	vr := collMod(r-root, size)
	if vr == 0 {
		return -1
	}
	return collMod((vr-1)/2+root, size)
}

// collChildIndex maps a child rank back to its 0/1 slot under parent r.
func collChildIndex(r, child, root, size int) int {
	cs, k := collChildren(r, root, size)
	for i := 0; i < k; i++ {
		if cs[i] == child {
			return i
		}
	}
	return -1
}

// ---- verbs.CollDevice implementation (management + doorbell FSM). ----

// JoinColl implements verbs.CollDevice: register this adapter as one
// rank. Routes are resolved once here, so the datapath FSM never touches
// the address table. Re-joining a group id replaces the membership (the
// post-crash recovery path).
func (n *NIC) JoinColl(group uint16, rank int, members []inet.Addr6, cq *verbs.CQ) error {
	if n.down {
		return verbs.ErrNICDown
	}
	n.mgmtCost()
	atts := make([]int, len(members))
	for i, addr := range members {
		att, err := n.cfg.Routes.Lookup(addr)
		if err != nil {
			return fmt.Errorf("%w: collective member %d (%v)", verbs.ErrNoRoute, i, addr)
		}
		atts[i] = att
	}
	if old := n.collGroups[group]; old != nil {
		old.retireAll()
	}
	n.collGroups[group] = &collGroup{
		id:   group,
		rank: rank,
		cq:   cq,
		atts: atts,
	}
	return nil
}

// collPostJob is one posted collective WR between its doorbell write and
// its firmware stage.
type collPostJob struct {
	g   *collGroup
	seq uint32
	wr  verbs.CollWR
}

// PostColl implements verbs.CollDevice: one PIO doorbell write carries
// the WR notification across the bus; the firmware picks the WR up on
// the other side. The sequence number is claimed synchronously (it is
// the WR's position in this rank's posting order).
func (n *NIC) PostColl(group uint16, wr verbs.CollWR) error {
	if n.down {
		return verbs.ErrNICDown
	}
	g := n.collGroups[group]
	if g == nil {
		return errors.New("qpipnic: collective group not joined")
	}
	switch wr.Op {
	case verbs.OpBarrier, verbs.OpBcast, verbs.OpAllreduce, verbs.OpReduceScatter:
	default:
		return fmt.Errorf("%w: op %d is not a collective", verbs.ErrNotSupported, wr.Op)
	}
	seq := g.nextSeq
	g.nextSeq++
	n.cfg.Bus.PIOWrite("doorbell", n.collDoorbells.Add(collPostJob{g, seq, wr}))
	return nil
}

// onCollDoorbell is a collective doorbell write's arrival: the WR's
// firmware stage queues, unless the adapter crashed (or the group was
// re-joined) while the write was in flight.
func (n *NIC) onCollDoorbell(j collPostJob) {
	if n.down || n.collGroups[j.g.id] != j.g {
		return
	}
	n.cpu.Do(params.US(params.CollPostUS), "coll.post", n.collPosts.Add(j))
}

// collPost consumes a collective WR on the firmware side.
func (n *NIC) collPost(j collPostJob) {
	g, seq, wr := j.g, j.seq, j.wr
	op := g.op(seq)
	if op.posted || op.done {
		return
	}
	op.posted = true
	op.wr = wr
	size := g.size()
	switch wr.Op {
	case verbs.OpBarrier:
		if size == 1 {
			n.collComplete(g, op, nil)
			return
		}
		n.collBarrierCheck(g, op)
	case verbs.OpBcast:
		if size == 1 || g.rank == wr.Root {
			op.hasData, op.data = true, wr.Vec
			cs, k := collChildren(g.rank, wr.Root, size)
			for _, c := range cs[:k] {
				n.collSend(g, c, &collMsg{group: g.id, seq: seq, kind: collData,
					root: wr.Root, from: g.rank, vec: wr.Vec})
			}
			n.collComplete(g, op, wr.Vec)
			return
		}
		if op.hasData {
			// The tree delivered before we posted; forwarding already
			// happened on arrival.
			n.collComplete(g, op, op.data)
		}
	case verbs.OpAllreduce, verbs.OpReduceScatter:
		op.vlen = len(wr.Vec)
		if size == 1 {
			n.collComplete(g, op, wr.Vec)
			return
		}
		op.clen = (op.vlen + size - 1) / size
		if op.clen == 0 {
			op.clen = 1
		}
		op.vec = g.ringVec(size * op.clen)
		copy(op.vec, wr.Vec)
		n.collRingSend(g, op, 0)
		n.collRingDrain(g, op)
	}
}

// ---- receive FSM extension. ----

// receiveColl handles a collective frame (called from receiveFrame; the
// adapter is known to be up). One FSM step is charged per message; ring
// combines add the per-word reduce cost. The delivery's reference passes
// to the stage's collDelivery.
//
//qpip:hotpath
func (n *NIC) receiveColl(m *collMsg) {
	g := n.collGroups[m.group]
	if g == nil {
		n.Net.Add("coll.unknown-group", 1)
		m.Release()
		return
	}
	d := params.US(params.CollStepUS)
	if m.kind == collRing {
		d += params.NICCycles(params.CollReduceCyclesPerWord * float64(len(m.vec)))
	}
	n.cpu.Do(d, "coll.step", n.collRecv.Add(collDelivery{g, m}))
}

// collDispatch steps the FSM on one delivered message. A ring message's
// reference is released here or parked in the stash with it; tree messages
// are not recycled (collData's vector is aliased into op.data and the
// forwarded copies), so there is nothing to release.
//
//qpip:hotpath
func (n *NIC) collDispatch(g *collGroup, op *collOp, m *collMsg) {
	switch m.kind {
	case collArrive:
		i := collChildIndex(g.rank, m.from, 0, g.size())
		if i < 0 || op.arrived[i] {
			*n.collDupDrop++
			return
		}
		op.arrived[i] = true
		n.collBarrierCheck(g, op)
	case collRelease:
		n.collBarrierRelease(g, op)
	case collData:
		if op.hasData {
			*n.collDupDrop++
			return
		}
		op.hasData, op.data = true, m.vec
		// Forward down the tree immediately — offload means the data
		// keeps moving whether or not this rank's host posted yet.
		cs, k := collChildren(g.rank, m.root, g.size())
		for _, c := range cs[:k] {
			n.collSend(g, c, &collMsg{group: g.id, seq: m.seq, kind: collData,
				root: m.root, from: g.rank, vec: m.vec})
		}
		if op.posted {
			n.collComplete(g, op, op.data)
		}
	case collRing:
		if op.done || m.step < op.nextStep || (op.stash != nil && op.stash[m.step] != nil) {
			*n.collDupDrop++
			m.Release()
			return
		}
		if op.stash == nil {
			op.stash = g.ringStash()
		}
		op.stash[m.step] = m
		if op.posted {
			n.collRingDrain(g, op)
		}
	}
}

// ---- barrier. ----

// collBarrierCheck sends this rank's ARRIVE up (or, at the root, starts
// the release wave) once the local post and both children's arrivals are
// in. upSent makes re-checks from duplicate arrivals harmless.
func (n *NIC) collBarrierCheck(g *collGroup, op *collOp) {
	if op.upSent || !op.posted {
		return
	}
	_, k := collChildren(g.rank, 0, g.size())
	for i := 0; i < k; i++ {
		if !op.arrived[i] {
			return
		}
	}
	op.upSent = true
	if p := collParent(g.rank, 0, g.size()); p >= 0 {
		n.collSend(g, p, &collMsg{group: g.id, seq: op.seq, kind: collArrive, from: g.rank})
		return
	}
	n.collBarrierRelease(g, op)
}

// collBarrierRelease floods RELEASE down the tree and completes the local
// barrier; first-wins via the done flag.
func (n *NIC) collBarrierRelease(g *collGroup, op *collOp) {
	if op.done {
		*n.collDupDrop++
		return
	}
	cs, k := collChildren(g.rank, 0, g.size())
	for _, c := range cs[:k] {
		n.collSend(g, c, &collMsg{group: g.id, seq: op.seq, kind: collRelease, from: g.rank})
	}
	n.collComplete(g, op, nil)
}

// ---- ring reduction. ----

// collRingSteps is the schedule length: both phases for allreduce, the
// reduce-scatter phase alone for OpReduceScatter.
func collRingSteps(op verbs.Op, size int) int {
	if op == verbs.OpAllreduce {
		return 2 * (size - 1)
	}
	return size - 1
}

// collRingChunkOut is the chunk index rank r transmits at step s.
func collRingChunkOut(r, s, size int) int {
	if s < size-1 {
		return collMod(r-s, size) // reduce-scatter phase
	}
	return collMod(r+1-(s-(size-1)), size) // allgather phase
}

// collRingSend emits rank r's step-s message to its ring successor: the
// outgoing chunk is copied into a recycled message's own word store.
//
//qpip:hotpath
func (n *NIC) collRingSend(g *collGroup, op *collOp, s int) {
	ci := collRingChunkOut(g.rank, s, g.size())
	m := n.getCollMsg()
	m.group, m.seq, m.kind, m.step, m.from = g.id, op.seq, collRing, s, g.rank
	m.vec = append(m.vec, op.vec[ci*op.clen:(ci+1)*op.clen]...)
	n.collSend(g, collMod(g.rank+1, g.size()), m)
}

// collRingDrain consumes parked steps strictly in order: combine (or
// store) the arriving chunk, emit the next step's message, repeat until
// the stash runs dry or the schedule completes.
//
//qpip:hotpath
func (n *NIC) collRingDrain(g *collGroup, op *collOp) {
	if op.stash == nil {
		return // nothing has arrived yet
	}
	size := g.size()
	total := collRingSteps(op.wr.Op, size)
	for {
		s := op.nextStep
		m := op.stash[s]
		if m == nil {
			return
		}
		op.stash[s] = nil
		if s < size-1 {
			ci := collMod(g.rank-s-1, size)
			dst := op.vec[ci*op.clen : (ci+1)*op.clen]
			for i, w := range m.vec {
				dst[i] += w
			}
		} else {
			ci := collMod(g.rank-(s-(size-1)), size)
			copy(op.vec[ci*op.clen:(ci+1)*op.clen], m.vec)
		}
		m.Release()
		op.nextStep++
		if op.nextStep < total {
			n.collRingSend(g, op, op.nextStep)
			continue
		}
		if op.wr.Op == verbs.OpAllreduce {
			n.collComplete(g, op, op.vec[:op.vlen])
		} else {
			ci := collMod(g.rank+1, size)
			n.collComplete(g, op, op.vec[ci*op.clen:(ci+1)*op.clen])
		}
		return
	}
}

// ---- completion and transmit. ----

// collComplete finishes the local operation: one host notification
// through the lightweight interrupt path carries the completion (and
// result vector) to the bound CQ. The done flag also fences duplicate
// frames of a finished op.
func (n *NIC) collComplete(g *collGroup, op *collOp, result []uint64) {
	if op.done {
		return
	}
	op.done = true
	n.Net.Add("coll.complete", 1)
	comp := verbs.Completion{
		QPN:     0x80000000 | uint32(g.id),
		WRID:    op.wr.ID,
		Op:      op.wr.Op,
		Status:  verbs.StatusSuccess,
		ByteLen: 8 * len(result),
		Payload: verbs.MarshalVec(result),
	}
	// MarshalVec copied the result, which may alias the working vector.
	g.collRetire(op)
	g.advance()
	cq := g.cq
	//lint:qpip-allow hotprop one completion notification per operation, not per message
	n.notifyHost(func() { cq.Push(comp) })
}

// collSend injects one collective message into the fabric. The firmware
// already charged the stage that built it; the frame serializes on the
// adapter's link like any other transmit.
//
//qpip:hotpath
func (n *NIC) collSend(g *collGroup, to int, m *collMsg) {
	*n.collMsgs++
	n.fab.Send(fabric.NewFrame(n.att, g.atts[to], collWireBytes(len(m.vec)), m), nil)
}

// crashColl wipes the collective engine's SRAM state on adapter crash:
// undone posted operations flush to their CQs (group ids ascending,
// sequences ascending — deterministic like the QP flush order), parked
// ring steps give up their references (copies still in flight die in
// receiveFrame while the adapter is down), then the group table empties.
// Hosts re-join groups after Restart.
func (n *NIC) crashColl() {
	gids := make([]int, 0, len(n.collGroups))
	for gid := range n.collGroups {
		gids = append(gids, int(gid))
	}
	sort.Ints(gids)
	for _, gid := range gids {
		g := n.collGroups[uint16(gid)]
		for _, op := range g.ops {
			if op == nil || !op.posted || op.done {
				continue
			}
			op.done = true
			comp := verbs.Completion{
				QPN:    0x80000000 | uint32(g.id),
				WRID:   op.wr.ID,
				Op:     op.wr.Op,
				Status: verbs.StatusFlushed,
			}
			cq := g.cq
			n.notifyHost(func() { cq.Push(comp) })
		}
		g.retireAll()
	}
	n.collGroups = make(map[uint16]*collGroup)
}

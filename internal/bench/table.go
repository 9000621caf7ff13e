package bench

import (
	"fmt"
	"io"
)

// Options are the workload sizes every experiment reads (qpipbench's
// flags of the same names).
type Options struct {
	Bytes      int   // ttcp transfer size (fig4, chaos, recovery, irq, ablations)
	NBDBytes   int   // NBD working set (fig7)
	Iters      int   // ping-pong iterations (fig3, tables, irq)
	CollNodes  []int // group sizes (collective)
	CollIters  int   // timed operations per point (collective)
	VecWords   int   // allreduce vector length in 64-bit words (collective)
	ConnCounts []int // connection counts (connscale)
	ConnMsgs   int   // requests per connection (connscale)
}

// Experiment is one qpipbench report. Run writes simulated results only —
// never host time — so its output is a pure function of the Options and
// the tree, which the golden files in testdata/golden pin.
type Experiment struct {
	Name  string
	InAll bool // part of qpipbench -exp all
	Run   func(w io.Writer, o Options) error
}

// Experiments is every report qpipbench can regenerate, in -exp all order.
// collective and connscale sweep up to 128 nodes and 8192 connections per
// point at their default sizes, so -exp all leaves them out.
var Experiments = []Experiment{
	{"fig3", true, func(w io.Writer, o Options) error { return put(w, RenderFigure3(Figure3(o.Iters))) }},
	{"fig4", true, func(w io.Writer, o Options) error { return put(w, RenderFigure4(Figure4(o.Bytes))) }},
	{"table1", true, func(w io.Writer, o Options) error { return put(w, RenderTable1(Table1(o.Iters))) }},
	{"table2", true, func(w io.Writer, o Options) error { return put(w, RenderTable2(Table2(o.Iters))) }},
	{"table3", true, func(w io.Writer, o Options) error { return put(w, RenderTable3(Table3(o.Iters))) }},
	{"fig7", true, func(w io.Writer, o Options) error { return put(w, RenderFigure7(Figure7(o.NBDBytes))) }},
	{"chaos", true, func(w io.Writer, o Options) error { return put(w, RenderChaos(Chaos(o.Bytes))) }},
	{"recovery", true, runRecovery},
	{"irq", true, func(w io.Writer, o Options) error { return put(w, RenderIRQ(IRQAblation(o.Bytes, o.Iters))) }},
	{"ablations", true, func(w io.Writer, o Options) error {
		return put(w, RenderAblation(AblationChecksum(o.Bytes))+"\n"+
			RenderAblation(AblationPipelinedTX(o.Bytes))+"\n"+
			RenderAblation(AblationDelAck(o.Bytes))+"\n"+
			RenderMTUSweep(AblationMTU(o.Bytes)))
	}},
	{"collective", false, func(w io.Writer, o Options) error {
		return put(w, RenderCollective(Collective(o.CollNodes, o.CollIters, o.VecWords)))
	}},
	{"connscale", false, func(w io.Writer, o Options) error {
		return put(w, RenderConnscale(Connscale(o.ConnCounts, o.ConnMsgs)))
	}},
}

// runRecovery renders the recovery sweep and fails unless every point
// read back byte-exact.
func runRecovery(w io.Writer, o Options) error {
	rows := Recovery(o.Bytes)
	if err := put(w, RenderRecovery(rows)); err != nil {
		return err
	}
	for _, r := range rows {
		if !r.Verified || r.Failed {
			return fmt.Errorf("recovery: %s/%s point not byte-exact", r.Scenario, r.Backoff)
		}
	}
	return nil
}

func put(w io.Writer, s string) error {
	_, err := io.WriteString(w, s)
	return err
}

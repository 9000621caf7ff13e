package bench

import (
	"fmt"
	"strings"
)

// Renderers: paper-style text tables with measured-vs-paper columns.

func header(b *strings.Builder, title string) {
	fmt.Fprintf(b, "%s\n%s\n", title, strings.Repeat("-", len(title)))
}

// RenderFigure3 renders the RTT comparison.
func RenderFigure3(rows []RTTRow) string {
	var b strings.Builder
	header(&b, "Figure 3: application-to-application RTT (1-byte message)")
	fmt.Fprintf(&b, "%-26s %12s %12s %14s %14s\n", "stack", "UDP (us)", "TCP (us)", "paper UDP", "paper TCP")
	for _, r := range rows {
		pu, pt := "-", "-"
		if r.PaperUDPus > 0 {
			pu = fmt.Sprintf("%.0f", r.PaperUDPus)
		}
		if r.PaperTCPus > 0 {
			pt = fmt.Sprintf("%.0f", r.PaperTCPus)
		}
		fmt.Fprintf(&b, "%-26s %12.1f %12.1f %14s %14s\n", r.Stack, r.UDPus, r.TCPus, pu, pt)
	}
	return b.String()
}

// RenderFigure4 renders the throughput/utilization matrix; the header
// names the transfer size the rows were measured at (the paper's is 10 MB).
func RenderFigure4(rows []TtcpRow) string {
	var b strings.Builder
	header(&b, fmt.Sprintf("Figure 4: ttcp throughput and CPU utilization (%g MB, 16 KB writes, TCP_NODELAY)",
		float64(rows[0].Bytes)/(1<<20)))
	fmt.Fprintf(&b, "%-18s %7s %10s %10s %9s %11s\n", "stack", "MTU", "MB/s", "host CPU", "NIC CPU", "paper MB/s")
	for _, r := range rows {
		nic := "-"
		if r.NICCPU > 0 {
			nic = fmt.Sprintf("%.0f%%", r.NICCPU*100)
		}
		paper := "-"
		if r.PaperMBps > 0 {
			paper = fmt.Sprintf("%.1f", r.PaperMBps)
		}
		host := fmt.Sprintf("%.0f%%", r.HostCPU*100)
		if r.HostCPU < 0.01 {
			host = "<1%"
		}
		fmt.Fprintf(&b, "%-18s %7d %10.1f %10s %9s %11s\n", r.Stack, r.MTU, r.MBps, host, nic, paper)
	}
	return b.String()
}

// RenderTable1 renders the host overhead comparison.
func RenderTable1(rows []OverheadRow) string {
	var b strings.Builder
	header(&b, "Table 1: host overhead for transmit and receive paths (1-byte TCP message)")
	fmt.Fprintf(&b, "%-16s %12s %12s %14s %14s\n", "stack", "time (us)", "cycles", "paper (us)", "paper cycles")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %12.1f %12.0f %14.1f %14.0f\n",
			r.Stack, r.Micros, r.Cycles, r.PaperMicros, r.PaperCycles)
	}
	return b.String()
}

// renderStages renders Table 2 or 3.
func renderStages(title string, rows []StageRow) string {
	var b strings.Builder
	header(&b, title)
	fmt.Fprintf(&b, "%-18s %11s %11s %12s %12s\n", "stage", "data (us)", "ack (us)", "paper data", "paper ack")
	cell := func(v float64) string {
		if v == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f", v)
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %11s %11s %12s %12s\n",
			r.Stage, cell(r.DataUS), cell(r.AckUS), cell(r.PaperDataUS), cell(r.PaperAckUS))
	}
	return b.String()
}

// RenderTable2 renders transmit-side occupancy.
func RenderTable2(rows []StageRow) string {
	return renderStages("Table 2: transmit-side network interface processing costs", rows)
}

// RenderTable3 renders receive-side occupancy.
func RenderTable3(rows []StageRow) string {
	return renderStages("Table 3: receive-side network interface processing costs", rows)
}

// RenderFigure7 renders the NBD results.
func RenderFigure7(rows []NBDRow) string {
	var b strings.Builder
	header(&b, "Figure 7: NBD client throughput and CPU effectiveness (sequential, ext2-lite)")
	fmt.Fprintf(&b, "%-12s %10s %10s %12s %12s %9s %9s\n",
		"stack", "wr MB/s", "rd MB/s", "wr MB/CPUs", "rd MB/CPUs", "wr CPU", "rd CPU")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %10.1f %10.1f %12.1f %12.1f %8.0f%% %8.0f%%\n",
			r.Stack, r.WriteMBps, r.ReadMBps, r.WriteEff, r.ReadEff,
			r.WriteCPU*100, r.ReadCPU*100)
	}
	// The paper's headline claims, checked against the measurements.
	var qp, best NBDRow
	for _, r := range rows {
		if r.Stack == "QPIP" {
			qp = r
		} else if r.ReadMBps > best.ReadMBps {
			best = r
		}
	}
	if qp.ReadMBps > 0 && best.ReadMBps > 0 {
		fmt.Fprintf(&b, "QPIP vs best host stack: read throughput %+.0f%%, read effectiveness %+.0f%% "+
			"(paper: +40%% to +137%% throughput, up to +133%% effectiveness)\n",
			(qp.ReadMBps/best.ReadMBps-1)*100, (qp.ReadEff/best.ReadEff-1)*100)
	}
	return b.String()
}

// RenderAblation renders one ablation pair.
func RenderAblation(r AblationRow) string {
	var b strings.Builder
	header(&b, "Ablation: "+r.Name)
	fmt.Fprintf(&b, "%-28s %10s %10s %9s\n", "setting", "MB/s", "host CPU", "NIC CPU")
	p := func(label string, m TtcpMeasure) {
		fmt.Fprintf(&b, "%-28s %10.1f %9.0f%% %8.0f%%\n",
			label, m.MBps, m.effectiveHostCPU()*100, m.NICCPU*100)
	}
	p(r.BaselineLabel, r.Baseline)
	p(r.VariantLabel, r.Variant)
	return b.String()
}

// RenderMTUSweep renders the MTU ablation.
func RenderMTUSweep(rows []TtcpRow) string {
	var b strings.Builder
	header(&b, "Ablation: QPIP MTU sweep")
	fmt.Fprintf(&b, "%7s %10s %10s %9s\n", "MTU", "MB/s", "host CPU", "NIC CPU")
	for _, r := range rows {
		fmt.Fprintf(&b, "%7d %10.1f %9.0f%% %8.0f%%\n", r.MTU, r.MBps, r.HostCPU*100, r.NICCPU*100)
	}
	return b.String()
}

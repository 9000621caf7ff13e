package tcp

import (
	"testing"

	"repro/internal/buf"
)

// This file measures the PR-2 datapath claims at the protocol-engine level:
// header marshal/parse into caller scratch, and a full send→deliver→ack
// round trip over an established record-mode pair. Unlike testNet, the
// helpers here follow the pooled ownership discipline — every segment a
// conn emits is Released by the consumer — so the benchmarks exercise the
// same recycling the simulated NIC firmware does.

// benchPair builds an established record-mode pair by exchanging the
// handshake segments directly, the way the firmware drives the TCB.
func benchPair(tb testing.TB) (client, server *Conn) {
	tb.Helper()
	mk := func(lp, rp uint16, iss Seq) *Conn {
		return NewConn(Config{
			LocalPort: lp, RemotePort: rp,
			Mode: Record, MSS: 16384,
			RecvWindow: 1 << 20, MaxRecvWindow: 1 << 20,
			WindowScale: true, Timestamps: true,
			ISS: iss,
		})
	}
	client = mk(1000, 2000, 100)
	server = mk(2000, 1000, 5000)

	now := int64(1_000_000_000)
	ca, err := client.Connect(now)
	if err != nil {
		tb.Fatalf("Connect: %v", err)
	}
	syn := ca.Segments[0]
	sa, err := server.AcceptSYN(syn, now)
	if err != nil {
		tb.Fatalf("AcceptSYN: %v", err)
	}
	syn.Release()
	synack := sa.Segments[0]
	ca2 := client.Input(synack, now)
	synack.Release()
	ack := ca2.Segments[0]
	server.Input(ack, now)
	ack.Release()
	if client.State() != Established || server.State() != Established {
		tb.Fatalf("handshake failed: %v / %v", client.State(), server.State())
	}
	return client, server
}

// roundtrip pushes one record from client to server and feeds the ack
// back, releasing both segments — the steady-state unit of a ttcp run.
func roundtrip(tb testing.TB, client, server *Conn, payload buf.Buf, now int64) {
	a, err := client.Send(payload, now)
	if err != nil {
		tb.Fatalf("Send: %v", err)
	}
	if len(a.Segments) != 1 {
		tb.Fatalf("Send emitted %d segments, want 1", len(a.Segments))
	}
	seg := a.Segments[0]
	sa := server.Input(seg, now)
	seg.Release()
	if len(sa.Segments) != 1 || len(sa.Delivered) != 1 {
		tb.Fatalf("Input emitted %d segments / %d deliveries, want 1/1",
			len(sa.Segments), len(sa.Delivered))
	}
	ackSeg := sa.Segments[0]
	client.Input(ackSeg, now+10_000)
	ackSeg.Release()
}

func benchSegment() *Segment {
	return &Segment{
		SrcPort: 1000, DstPort: 2000,
		Seq: 12345, Ack: 67890,
		Flags: ACK | PSH, Wnd: 4096,
		HasTS: true, TSVal: 111, TSEcr: 222,
		WScale:  -1,
		Payload: buf.Virtual(4096),
	}
}

func BenchmarkSegmentMarshal(b *testing.B) {
	seg := benchSegment()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = seg.MarshalHeader()
	}
}

func BenchmarkSegmentMarshalInto(b *testing.B) {
	seg := benchSegment()
	var scratch [64]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = seg.MarshalHeaderInto(scratch[:])
	}
}

func BenchmarkSegmentParse(b *testing.B) {
	hdr := benchSegment().MarshalHeader()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := ParseHeader(hdr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecordRoundtrip is the pooled send path: recycled segments,
// reused Actions backing, free-listed flight entries, pool.Ring queues.
func BenchmarkRecordRoundtrip(b *testing.B) {
	client, server := benchPair(b)
	payload := buf.Pattern(4096, 0x5A)
	now := int64(2_000_000_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundtrip(b, client, server, payload, now)
		now += 20_000
	}
}

// TestSendPathAllocFree is the allocation regression gate for the record
// send path: once warm, a full send→deliver→ack round trip must not
// allocate. (testing.AllocsPerRun can observe a stray allocation if a GC
// cycle empties the segment pool mid-measurement, so the bound allows a
// small fraction rather than demanding exactly zero.)
func TestSendPathAllocFree(t *testing.T) {
	client, server := benchPair(t)
	payload := buf.Pattern(4096, 0x5A)
	now := int64(2_000_000_000)
	step := func() {
		roundtrip(t, client, server, payload, now)
		now += 20_000
	}
	for i := 0; i < 64; i++ {
		step() // warm the pools and grow every reused backing array
	}
	if avg := testing.AllocsPerRun(200, step); avg > 0.25 {
		t.Errorf("record round trip allocates %.2f objects/op after warmup, want ~0", avg)
	}
}

// TestSegmentMarshalIntoAllocFree pins the scratch-marshal path at zero
// allocations.
func TestSegmentMarshalIntoAllocFree(t *testing.T) {
	seg := benchSegment()
	var scratch [64]byte
	if avg := testing.AllocsPerRun(100, func() {
		_ = seg.MarshalHeaderInto(scratch[:])
	}); avg != 0 {
		t.Errorf("MarshalHeaderInto allocates %.2f objects/op, want 0", avg)
	}
}

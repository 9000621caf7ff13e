package qpip_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/qpip"
)

var update = flag.Bool("update", false, "rewrite testdata/golden files from the current tree")

// goldenSeeds are the chaos-transfer seeds pinned in chaos_transfer.txt,
// in file order.
var goldenSeeds = []uint64{0x51EE7, 0xC0FFEE, 7, 0xBEEF}

// goldenChaosTransfer renders one chaos run as a single golden line: the
// simulated end time, an FNV-64 of the injector trace (which embeds every
// fault's timestamp), the completion-status sequence in completion order,
// and an FNV-64 of the delivered bytes. Nothing in it depends on host time.
func goldenChaosTransfer(seed uint64, r chaosResult) string {
	return fmt.Sprintf("seed=%#x end_ns=%d trace_fnv64=%016x bytes_fnv64=%016x statuses=%s",
		seed, int64(r.endTime), fnv64([]byte(r.trace)), fnv64(r.received), strings.TrimSpace(r.statuses))
}

func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// checkGolden compares got with testdata/golden/<name>, or rewrites the
// file when the test binary runs with -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -run %s -update to create it)", err, t.Name())
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s line %d:\n got  %s\n want %s", path, i+1, g, w)
		}
	}
}

// TestChaosTransferGolden pins the simulated world of the chaos transfer
// (drops, corruption, duplication, jitter) for four seeds. The file was
// recorded while the heap event queue, the unpooled datapath and the
// per-token host↔NIC boundary still existed as switchable alternatives,
// and all three produced exactly these lines; it is now the evidence that
// the timer wheel, the pooled datapath and the batched boundary are pure
// mechanism. A change to any timing parameter moves end_ns or the trace.
func TestChaosTransferGolden(t *testing.T) {
	var sb strings.Builder
	for _, seed := range goldenSeeds {
		r := runChaosTransfer(t, seed, 48, 8192)
		if t.Failed() {
			return
		}
		sb.WriteString(goldenChaosTransfer(seed, r))
		sb.WriteByte('\n')
	}
	checkGolden(t, "chaos_transfer.txt", sb.String())
}

// checkGoldenSeed compares one chaos run with its seed's line of
// testdata/golden/chaos_transfer.txt.
func checkGoldenSeed(t *testing.T, seed uint64, r chaosResult) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "chaos_transfer.txt"))
	if err != nil {
		t.Fatal(err)
	}
	got := goldenChaosTransfer(seed, r)
	prefix := fmt.Sprintf("seed=%#x ", seed)
	for _, line := range strings.Split(string(want), "\n") {
		if strings.HasPrefix(line, prefix) {
			if line != got {
				t.Errorf("seed %#x:\n got  %s\n want %s", seed, got, line)
			}
			return
		}
	}
	t.Errorf("no golden line for seed %#x", seed)
}

// TestPoolingAndWheelPreserveDeterminism: the golden lines were recorded
// while the binary-heap event queue and the unpooled datapath were still
// selectable and produced them too, so the timer wheel and the pools are
// pure mechanism as long as recycled objects carry nothing from one run
// into the next. The seeds run in reverse file order, so every run after
// the first draws its packets, segments and frames from pools that a run
// of another seed filled; each must still reproduce its seed's line.
func TestPoolingAndWheelPreserveDeterminism(t *testing.T) {
	for i := len(goldenSeeds) - 1; i >= 0; i-- {
		seed := goldenSeeds[i]
		r := runChaosTransfer(t, seed, 48, 8192)
		if t.Failed() {
			return
		}
		checkGoldenSeed(t, seed, r)
	}
}

// TestBatchedBoundaryPreservesDeterminism: at a CQ coalescing delay of 0
// every completion event fires at once whatever the packet threshold, so
// the batched host↔NIC boundary (vectored doorbells, whole-FIFO drains,
// IRQ-routed CQ wakes) with a 16-packet threshold configured must still
// reproduce the golden lines, which the per-token boundary also produced
// when they were recorded.
func TestBatchedBoundaryPreservesDeterminism(t *testing.T) {
	for _, seed := range goldenSeeds {
		c := qpip.NewCluster(2, qpip.NodeConfig{QPIP: true, QPIPCQCoalescePkts: 16})
		r := runChaosTransferOn(t, c, seed, 48, 8192)
		if t.Failed() {
			return
		}
		checkGoldenSeed(t, seed, r)
	}
}

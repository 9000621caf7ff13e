package main

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestRepoLayer(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Engine).At":                                          "sim",
		"repro/internal/sim/par.Run.func1":                                         "par",
		"repro/internal/inet.Sum":                                                  "inet",
		"repro/internal/wire.(*Packet).Release":                                    "buf_pool_wire",
		"repro/internal/udp.(*PortSpace[go.shape.*repro/internal/qpipnic.qs]).Get": "other",
		"repro/internal/topo.Build":                                                "other",
		"main.buildPairs.func2":                                                    "driver",
		"runtime.mallocgc":                                                         "",
		"bytes.Equal":                                                              "",
	} {
		if got := repoLayer(fn); got != want {
			t.Errorf("repoLayer(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestAttribute(t *testing.T) {
	for _, c := range []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{"repro/internal/inet.Sum", "repro/internal/qpipnic.(*NIC).rx", "repro/internal/sim.(*Engine).Run"}, "inet"},
		// A runtime helper that is neither allocation nor scheduling belongs
		// to the layer that called it.
		{[]string{"runtime.memmove", "repro/internal/sim.(*Engine).At", "main.main"}, "sim"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.growslice", "repro/internal/qpipnic.(*NIC).enqueueSRQWaiter"}, "rt_mem"},
		{[]string{"runtime.futex", "runtime.futexwakeup", "runtime.chansend", "repro/internal/sim.(*Proc).park", "main.buildPairs.func2"}, "rt_sched"},
		// Allocation that ends up waiting is still allocation.
		{[]string{"runtime.futex", "runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/tcp.(*Conn).Send"}, "rt_mem"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "rt_mem"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"}, "rt_sched"},
		{[]string{"syscall.Syscall", "os.ReadFile"}, "other"},
		{[]string{"main.(*actor).done", "main.buildPairs.func2", "repro/internal/sim.(*Engine).Spawn.func1.1"}, "driver"},
	} {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// A hand-encoded profile.proto exercises the decoder: packed and unpacked
// repeated fields, a location with an inlined frame, skipped fields.
func TestDecodeProfile(t *testing.T) {
	varint := func(v uint64) []byte {
		var b []byte
		for v >= 0x80 {
			b = append(b, byte(v)|0x80)
			v >>= 7
		}
		return append(b, byte(v))
	}
	field := func(num int, v uint64) []byte { return append(varint(uint64(num)<<3), varint(v)...) }
	bytesField := func(num int, p []byte) []byte {
		return append(append(varint(uint64(num)<<3|2), varint(uint64(len(p)))...), p...)
	}
	cat := func(parts ...[]byte) []byte {
		var b []byte
		for _, p := range parts {
			b = append(b, p...)
		}
		return b
	}
	strs := []string{"", "runtime.futex", "repro/internal/sim.(*Proc).park", "main.client", "repro/internal/inet.Sum"}
	var prof []byte
	prof = append(prof, bytesField(1, cat(field(1, 1), field(2, 2)))...) // sample_type: ignored
	// Sample 1: packed location ids 1,2 and packed values 3,30000000.
	prof = append(prof, bytesField(2, cat(bytesField(1, cat(varint(1), varint(2))), bytesField(2, cat(varint(3), varint(30000000)))))...)
	// Sample 2: unpacked location id 3, unpacked value 5.
	prof = append(prof, bytesField(2, cat(field(1, 3), field(2, 5), field(2, 50000000)))...)
	// Location 1 = futex; location 2 = park inlined into client; 3 = Sum.
	prof = append(prof, bytesField(4, cat(field(1, 1), field(3, 0xdeadbeef), bytesField(4, cat(field(1, 10), field(2, 7)))))...)
	prof = append(prof, bytesField(4, cat(field(1, 2), bytesField(4, field(1, 11)), bytesField(4, field(1, 12))))...)
	prof = append(prof, bytesField(4, cat(field(1, 3), bytesField(4, field(1, 13))))...)
	for i, name := range []uint64{1, 2, 3, 4} {
		prof = append(prof, bytesField(5, cat(field(1, uint64(10+i)), field(2, name), field(4, 0)))...)
	}
	for _, s := range strs {
		prof = append(prof, bytesField(6, []byte(s))...)
	}
	prof = append(prof, field(9, 12345)...) // time_nanos: ignored

	got, err := decodeProfile(prof)
	if err != nil {
		t.Fatal(err)
	}
	want := []stackSample{
		{funcs: []string{"runtime.futex", "repro/internal/sim.(*Proc).park", "main.client"}, count: 3},
		{funcs: []string{"repro/internal/inet.Sum"}, count: 5},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("decoded %+v, want %+v", got, want)
	}
	if _, err := decodeProfile(prof[:len(prof)-5]); err == nil {
		t.Error("a truncated profile decoded without error")
	}
}

// The checked-in fixture is a real CPU profile of a small stream_real run
// (TestWriteProfileFixture makes it). Its attribution is pinned: a
// change to the rules shows up here as a changed share.
func TestProfileFixture(t *testing.T) {
	gz, err := os.ReadFile(filepath.Join("testdata", "stream_real.cpu.pb.gz"))
	if err != nil {
		t.Fatal(err)
	}
	shares, samples, err := profileShares(gz)
	if err != nil {
		t.Fatal(err)
	}
	if samples != fixtureSamples {
		t.Errorf("%d samples, want %d", samples, fixtureSamples)
	}
	sum := 0.0
	for _, n := range shareNames {
		sum += shares[n]
		if want := fixtureShares[n]; math.Abs(shares[n]-want) > 5e-4 {
			t.Errorf("share.%s = %.4f, want %.4f", n, shares[n], want)
		}
	}
	if math.Abs(sum-1) > 1e-9 || len(shares) != len(shareNames) {
		t.Errorf("%d shares sum to %v, want %d summing to 1", len(shares), sum, len(shareNames))
	}
	// What the benchmark's written predictions rest on.
	if shares["inet"] < 0.3 {
		t.Errorf("checksumming real payloads is %.2f of the fixture, want the largest layer", shares["inet"])
	}
	if shares["par"] != 0 || shares["hostos"] != 0 {
		t.Errorf("an unsharded QPIP run has par %.3f and hostos %.3f samples", shares["par"], shares["hostos"])
	}
}

// TestWriteProfileFixture regenerates the fixture and prints the constants
// below; it only runs when asked to:
//
//	WRITE_FIXTURE=1 go test -run TestWriteProfileFixture -v
func TestWriteProfileFixture(t *testing.T) {
	if os.Getenv("WRITE_FIXTURE") == "" {
		t.Skip("set WRITE_FIXTURE=1 to regenerate testdata/stream_real.cpu.pb.gz")
	}
	res := runChild(findWorkload("stream_real"), 1, 0.5, true, time.Now())
	if err := os.WriteFile(filepath.Join("testdata", "stream_real.cpu.pb.gz"), res.profile, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("fixtureSamples = %d", res.Samples)
	for _, n := range shareNames {
		t.Logf("%q: %.4f,", n, res.Shares[n])
	}
}

// Pinned attribution of the fixture.
const fixtureSamples = 107

var fixtureShares = map[string]float64{
	"sim": 0.0561, "inet": 0.4299, "fabric": 0.0093, "hw": 0.0093, "qpipnic": 0.0467,
	"verbs": 0.0467, "rt_sched": 0.3832, "rt_mem": 0.0093, "other": 0.0093,
}

package inet

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestCPUIDMatchesCPUInfo holds the CPUID decoding to the kernel's own
// reading: on Linux the "avx2" flag in /proc/cpuinfo is set only when the
// CPU has AVX2 and the kernel saves the YMM state, which is what
// cpuHasAVX2 reads from CPUID and XGETBV.
func TestCPUIDMatchesCPUInfo(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("/proc/cpuinfo is Linux-only")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	var flags []string
	for _, line := range strings.Split(string(info), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "flags" {
			flags = strings.Fields(v)
			break
		}
	}
	if flags == nil {
		t.Skip("/proc/cpuinfo lists no flags")
	}
	if want := slices.Contains(flags, "avx2"); haveAVX2 != want {
		t.Fatalf("cpuHasAVX2() = %v, /proc/cpuinfo avx2 flag %v", haveAVX2, want)
	}
	if !haveAVX2 {
		t.Log("no AVX2 on this CPU: Sum runs the generic word loop only")
	}
}

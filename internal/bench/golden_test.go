package bench

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden files from the current tree")

// goldenOptions are the sizes the golden files were recorded at:
// qpipbench's defaults, with the collective and connscale sweeps cut to
// the group sizes and connection counts tier-1 can afford.
var goldenOptions = Options{
	Bytes: 4 << 20, NBDBytes: 64 << 20, Iters: 50,
	CollNodes: []int{2, 8, 32}, CollIters: 4, VecWords: 64,
	ConnCounts: []int{64, 512}, ConnMsgs: 4,
}

// TestExperimentGolden pins every qpipbench report byte for byte in
// testdata/golden/<name>.txt. The simulator is deterministic to the
// nanosecond, so any diff here is a change in simulated behaviour: rewrite
// the files (go test ./internal/bench -run TestExperimentGolden -update)
// only when that change is intended, and review the diff.
func TestExperimentGolden(t *testing.T) {
	for _, e := range Experiments {
		t.Run(e.Name, func(t *testing.T) {
			var b strings.Builder
			if err := e.Run(&b, goldenOptions); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, e.Name+".txt", b.String())
		})
	}
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

// TestParallelSweepIdentical proves qpipbench's -parallel claim: sweep
// points share nothing but the process, so a report rendered with
// concurrent sweep points is byte-identical to the sequential one.
func TestParallelSweepIdentical(t *testing.T) {
	defer SetParallelism(1)
	render := func(workers int) string {
		SetParallelism(workers)
		return RenderConnscale(Connscale([]int{64, 512}, 4)) + RenderRecovery(Recovery(4<<20))
	}
	seq, par := render(1), render(2)
	if seq != par {
		t.Errorf("reports differ between 1 and 2 sweep workers:\n--- sequential\n%s--- parallel\n%s", seq, par)
	}
}

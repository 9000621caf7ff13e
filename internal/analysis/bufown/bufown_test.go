package bufown_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/bufown"
)

// TestFixtures runs the cross-function ownership fixture and the
// single-function one (balance within a body, use after release).
func TestFixtures(t *testing.T) {
	for _, fixture := range []string{"bufown2", "bufownlocal"} {
		t.Run(fixture, func(t *testing.T) {
			analysistest.Run(t, bufown.Analyzer, "../testdata/src", fixture)
		})
	}
}

package hotprop_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/hotprop"
)

// TestFixtures runs the call-graph fixture and the hotalloc pattern
// fixture, whose annotated functions are all roots.
func TestFixtures(t *testing.T) {
	for _, fixture := range []string{"hotprop", "hotalloc"} {
		t.Run(fixture, func(t *testing.T) {
			analysistest.Run(t, hotprop.Analyzer, "../testdata/src", fixture)
		})
	}
}

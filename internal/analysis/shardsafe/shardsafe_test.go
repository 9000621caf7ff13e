package shardsafe_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/shardsafe"
)

func TestFixtures(t *testing.T) {
	analysistest.Run(t, shardsafe.Analyzer, "../testdata/src", "shardsafe")
}

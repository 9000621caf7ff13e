package main

import "testing"

// TestTreeIsLintClean runs every analyzer over the whole module, so
// `go test ./...` enforces the same gate as `make lint`.
func TestTreeIsLintClean(t *testing.T) {
	findings, err := lint(all, "repro/...")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

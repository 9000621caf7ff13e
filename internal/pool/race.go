//go:build race

package pool

// RaceEnabled reports whether the race detector is active. Its sync.Pool
// instrumentation intentionally drops recycles, so the zero-allocation
// regression tests skip themselves under it.
const RaceEnabled = true

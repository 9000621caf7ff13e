// Package root holds the annotated hot entry points; everything they can
// reach in package helper inherits the allocation discipline.
package root

import "hotprop/helper"

// State is the fixture's little engine.
type State struct {
	sinks []helper.Sink
	buf   []int
}

// Push is the hot root: its own body is checked, and so is everything it
// calls.
//
//qpip:hotpath
func Push(s *State, n int) string {
	s.buf = helper.Mid(s.buf)
	for _, k := range s.sinks {
		k.Consume(n) // interface dispatch: both Sink impls become hot-reachable
	}
	if n < 0 {
		//lint:qpip-allow hotprop rejected-input diagnostics, cold by construction
		return helper.ColdReport(n)
	}
	return helper.Format(n)
}

// localAlloc is an annotated root with no hot caller: its own body is
// checked under the annotation's name, with no call chain. An allow that
// names hotalloc (the pattern library, not an analyzer) suppresses nothing
// and is reported.
//
//qpip:hotpath
func localAlloc(xs []int) []int {
	//lint:qpip-allow hotalloc clone is fine here // want `//lint:qpip-allow names no analyzer "hotalloc"`
	return append([]int(nil), xs...) // want `^spread append to a freshly created empty slice in //qpip:hotpath function localAlloc allocates a new backing array per call: reuse a field-backed buffer$`
}

// Package helper holds unannotated callees; whether their allocations
// matter depends entirely on who reaches them, which is hotprop's job to
// figure out.
package helper

import "fmt"

// Format allocates. It is reached from the annotated root in package
// root, so the finding lands here with the cross-package call chain.
func Format(n int) string {
	return fmt.Sprintf("%d", n) // want `fmt.Sprintf in hot-reachable function Format allocates.*hot call chain: root.Push -> helper.Format`
}

// Deep is only reached through one more hop; the chain shows both.
func Deep(xs []int) []int {
	return append([]int(nil), xs...) // want `spread append to a freshly created empty slice in hot-reachable function Deep.*hot call chain: root.Push -> helper.Mid -> helper.Deep`
}

// Mid is allocation-free itself and just extends the chain.
func Mid(xs []int) []int { return Deep(xs) }

// Sink is an interface the root dispatches through.
type Sink interface {
	Consume(n int)
}

// LoudSink implements Sink with an allocating Consume: reached via the
// conservatively resolved interface call in root.Push.
type LoudSink struct{ last string }

func (s *LoudSink) Consume(n int) {
	if n > 0 {
		s.last = s.last + "!" // want `non-constant string concatenation in hot-reachable function Consume.*hot call chain: root.Push -> helper.\(\*LoudSink\).Consume`
	}
}

// QuietSink implements Sink without allocating: reached too, no finding.
type QuietSink struct{ last int }

func (s *QuietSink) Consume(n int) { s.last = n }

// ColdReport allocates but is only reached through a severed edge (the
// allow in root.Push): no finding anywhere in this subtree.
func ColdReport(n int) string {
	return fmt.Sprintf("cold %d", n)
}

// Orphan allocates and nothing hot reaches it: hotprop stays silent, so
// the allow here suppresses nothing and is itself reported as stale.
func Orphan(n int) string {
	//lint:qpip-allow hotprop diagnostics only // want `//lint:qpip-allow hotprop suppresses no finding: delete it`
	return fmt.Sprintf("orphan %d", n)
}

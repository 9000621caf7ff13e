// Package hot exercises each hotalloc allocation pattern through hotprop:
// every annotated function here is a hot root. The package path does not
// matter: hotprop keys on the annotation, not the tree.
package hot

import "fmt"

func sink(v any)   {}
func use(f func()) {}

// closures allocates its environment per call.
//
//qpip:hotpath
func closures(n int) {
	use(func() { n++ }) // want `closure in //qpip:hotpath function closures`
}

// formatted calls into fmt on the hot path.
//
//qpip:hotpath
func formatted(n int) string {
	return fmt.Sprintf("%d", n) // want `fmt.Sprintf in //qpip:hotpath function formatted`
}

// concat builds a string from a non-constant operand.
//
//qpip:hotpath
func concat(name string) string {
	return "qp:" + name // want `non-constant string concatenation in //qpip:hotpath function concat`
}

// boxed passes a concrete value to an interface parameter.
//
//qpip:hotpath
func boxed(n int) {
	sink(n) // want `passing int to interface parameter in //qpip:hotpath function boxed`
}

// grown appends to a local slice declared without capacity.
//
//qpip:hotpath
func grown(xs []int) []int {
	var out []int
	for _, x := range xs {
		out = append(out, x) // want `append to unsized local slice "out" in //qpip:hotpath function grown`
	}
	return out
}

// dyingWords may format its panic message: panic arguments are exempt.
//
//qpip:hotpath
func dyingWords(n int) {
	if n < 0 {
		panic(fmt.Sprintf("negative count %d", n))
	}
}

// preallocated appends into capacity reserved up front: legal.
//
//qpip:hotpath
func preallocated(xs []int) []int {
	out := make([]int, 0, len(xs))
	for _, x := range xs {
		out = append(out, x)
	}
	return out
}

// coldBranch is hot, but its error return is cold by construction and
// carries the allow.
//
//qpip:hotpath
func coldBranch(n, limit int) error {
	if n > limit {
		//lint:qpip-allow hotprop rejected-input error path, cold by construction
		return fmt.Errorf("count %d over limit %d", n, limit)
	}
	return nil
}

// cloneSpread uses the spread-clone idiom: append onto a fresh empty
// slice allocates a new backing array every call, however it is spelled.
//
//qpip:hotpath
func cloneSpread(xs []int) []int {
	return append([]int(nil), xs...) // want `spread append to a freshly created empty slice in //qpip:hotpath function cloneSpread`
}

// cloneLiteral clones through an empty composite literal instead of a
// nil conversion; same allocation, same finding.
//
//qpip:hotpath
func cloneLiteral(a, b int) []int {
	return append([]int{}, a, b) // want `append to a freshly created empty slice in //qpip:hotpath function cloneLiteral`
}

// cloneReslice zero-caps an existing slice before appending: x[:0:0]
// guarantees reallocation just like a fresh literal.
//
//qpip:hotpath
func cloneReslice(xs []int) []int {
	return append(xs[:0:0], xs...) // want `spread append to a freshly created empty slice in //qpip:hotpath function cloneReslice`
}

// cloneThenGrow binds the clone to a local; the clone itself is flagged
// and the local stays tracked as unsized for later appends.
//
//qpip:hotpath
func cloneThenGrow(xs []int, y int) []int {
	s := append([]int(nil), xs...) // want `spread append to a freshly created empty slice in //qpip:hotpath function cloneThenGrow`
	s = append(s, y)               // want `append to unsized local slice "s" in //qpip:hotpath function cloneThenGrow`
	return s
}

// indirected hides the fmt call behind a function value; the reference
// itself is flagged, not just direct call sites.
//
//qpip:hotpath
func indirected(n int) string {
	f := fmt.Sprintf  // want `reference to fmt.Sprintf in //qpip:hotpath function indirected`
	return f("%d", n) // want `passing int to interface parameter in //qpip:hotpath function indirected`
}

// reslicedInPlace truncates with plain x[:0], which keeps the backing
// array: legal, no finding.
//
//qpip:hotpath
func reslicedInPlace(buf, xs []int) []int {
	buf = buf[:0]
	for _, x := range xs {
		buf = append(buf, x)
	}
	return buf
}

// unannotated allocates freely: without the annotation, and unreached by
// any root, nothing is checked.
func unannotated(n int) string {
	use(func() { n++ })
	f := fmt.Sprintf
	_ = append([]int(nil), n)
	return f("%d", n)
}

// Package hotalloc is the allocation-pattern library behind hotprop's
// //qpip:hotpath discipline (DESIGN §12, §17).
//
// The steady-state datapath allocates nothing (DESIGN §10); the guarantee is
// pinned by runtime testing.AllocsPerRun regressions, which only cover
// the benchmarked paths. Check makes the property local and total: it
// inspects one function body for the allocation patterns that have
// actually bitten this codebase:
//
//   - function literals (a closure capturing variables allocates its
//     environment per call — bind continuations once at construction
//     instead, as chainRun and Proc do);
//   - calls into package fmt (Sprintf and friends allocate; hot paths
//     use precomputed names), and references to fmt functions in value
//     position (f := fmt.Sprintf allocates just the same when f is
//     called, and the method value itself may allocate);
//   - string concatenation with a non-constant operand;
//   - interface boxing: passing or converting a concrete non-pointer
//     value to an interface parameter heap-allocates the value (pointer,
//     func, chan and map values are word-sized and do not);
//   - append to a function-local slice declared without capacity (grows
//     per call; fields backed by reused arrays are fine and exempt);
//   - append to a freshly created empty slice — the clone idiom
//     append([]T(nil), src...) / append(x[:0:0], src...) / append([]T{},
//     a, b) — which allocates a new backing array on every call no
//     matter how it is spelled.
//
// Arguments of panic(...) are exempt everywhere: a hot path may format
// its dying words. The hotprop analyzer (internal/analysis/hotprop)
// applies Check to every annotated root and every function the call
// graph proves reachable from one; known-cold branches carry
// "//lint:qpip-allow hotprop <reason>" (e.g. verbs error returns). The
// fixture under testdata/src/hotalloc pins each pattern.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/framework"
)

// Check applies every allocation pattern to one function body, reporting
// through report. desc names the kind of function in each diagnostic
// ("//qpip:hotpath function", "hot-reachable function").
func Check(info *types.Info, fd *ast.FuncDecl, desc string, report func(pos token.Pos, format string, args ...any)) {
	// Spans of panic(...) argument lists; anything inside is exempt.
	var panicSpans []span
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && framework.IsPanicCall(info, call) {
			panicSpans = append(panicSpans, span{call.Lparen, call.Rparen})
		}
		return true
	})
	inPanic := func(pos token.Pos) bool {
		for _, s := range panicSpans {
			if s.lo <= pos && pos <= s.hi {
				return true
			}
		}
		return false
	}

	// Local slices declared without capacity: var s []T, s := []T{},
	// s := make([]T, n) (no cap), s := append(<fresh empty>, ...).
	unsized := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue
				}
				for _, name := range vs.Names {
					if obj := info.Defs[name]; obj != nil && isSlice(obj.Type()) {
						unsized[obj] = true
					}
				}
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || i >= len(n.Rhs) {
					continue
				}
				obj := info.Defs[id]
				if obj == nil || !isSlice(obj.Type()) {
					continue
				}
				switch rhs := ast.Unparen(n.Rhs[i]).(type) {
				case *ast.CompositeLit:
					if len(rhs.Elts) == 0 {
						unsized[obj] = true
					}
				case *ast.CallExpr:
					if id2, ok := ast.Unparen(rhs.Fun).(*ast.Ident); ok {
						if b, ok := info.Uses[id2].(*types.Builtin); ok {
							switch {
							case b.Name() == "make" && len(rhs.Args) < 3:
								unsized[obj] = true
							case b.Name() == "append" && len(rhs.Args) > 0 && isFreshEmptySlice(info, rhs.Args[0]):
								// s := append([]T(nil), ...) — the clone is
								// reported below; s also stays growth-tracked.
								unsized[obj] = true
							}
						}
					}
				}
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if inPanic(n.Pos()) {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			report(n.Pos(),
				"closure in %s %s allocates its environment per call: bind the continuation once at construction",
				desc, fd.Name.Name)
			return false // don't double-report the closure's own body
		case *ast.CallExpr:
			checkCall(info, fd, desc, n, report)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(info.Types[n.X].Type) && info.Types[n].Value == nil {
				report(n.Pos(),
					"non-constant string concatenation in %s %s allocates: precompute the string",
					desc, fd.Name.Name)
			}
		}
		return true
	})

	// Growing appends: to unsized locals, and to freshly created empty
	// slices (the spread-clone idiom allocates a new array per call).
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || inPanic(call.Pos()) {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return true
		}
		if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
			return true
		}
		if len(call.Args) == 0 {
			return true
		}
		if isFreshEmptySlice(info, call.Args[0]) {
			idiom := "append to a freshly created empty slice"
			if call.Ellipsis.IsValid() {
				idiom = "spread append to a freshly created empty slice"
			}
			report(call.Pos(),
				"%s in %s %s allocates a new backing array per call: reuse a field-backed buffer",
				idiom, desc, fd.Name.Name)
			return true
		}
		dst, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
		if !ok {
			return true
		}
		if obj := info.Uses[dst]; obj != nil && unsized[obj] {
			report(call.Pos(),
				"append to unsized local slice %q in %s %s grows per call: preallocate with capacity or reuse a field-backed array",
				dst.Name, desc, fd.Name.Name)
		}
		return true
	})

	// fmt functions referenced in value position: f := fmt.Sprintf (and
	// passing fmt.Sprintf to a helper) escapes the call-site check above
	// but allocates identically when invoked.
	callFuns := map[ast.Node]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			callFuns[ast.Unparen(call.Fun)] = true
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || callFuns[n] || inPanic(n.Pos()) {
			return true
		}
		fn, ok := info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
			return true
		}
		report(n.Pos(),
			"reference to fmt.%s in %s %s: calling it through a variable allocates just the same",
			fn.Name(), desc, fd.Name.Name)
		return false
	})
}

// isFreshEmptySlice reports whether e creates a zero-length slice with no
// reusable backing: []T{}, []T(nil), x[:0:0] / x[0:0:0]. Appending to
// such an expression must allocate.
func isFreshEmptySlice(info *types.Info, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		if tv, ok := info.Types[e]; ok && isSlice(tv.Type) {
			return len(e.Elts) == 0
		}
	case *ast.CallExpr:
		// A conversion []T(nil).
		if tv, ok := info.Types[e.Fun]; ok && tv.IsType() && isSlice(tv.Type) && len(e.Args) == 1 {
			if argTV, ok := info.Types[e.Args[0]]; ok && argTV.IsNil() {
				return true
			}
		}
	case *ast.SliceExpr:
		// x[:0:0] or x[0:0:0]: capacity zero forces reallocation.
		if e.Slice3 && isConstZero(info, e.High) && isConstZero(info, e.Max) {
			return e.Low == nil || isConstZero(info, e.Low)
		}
	}
	return false
}

func isConstZero(info *types.Info, e ast.Expr) bool {
	if e == nil {
		return false
	}
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	return tv.Value.String() == "0"
}

// checkCall flags fmt calls and interface-boxing arguments.
func checkCall(info *types.Info, fd *ast.FuncDecl, desc string, call *ast.CallExpr, report func(pos token.Pos, format string, args ...any)) {
	// panic(x) boxes x into its any parameter, but the panic exemption
	// covers the whole argument list: a hot path may format its dying words.
	if framework.IsPanicCall(info, call) {
		return
	}

	// Conversion to an interface type: any(x), io.Reader(x), ...
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 {
			if t := info.Types[call.Args[0]].Type; t != nil && boxes(t) {
				report(call.Pos(),
					"conversion of %s to interface in %s %s heap-allocates the value",
					t.String(), desc, fd.Name.Name)
			}
		}
		return
	}

	fn := framework.CalleeName(info, call)
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		report(call.Pos(),
			"fmt.%s in %s %s allocates: hot paths use precomputed strings",
			fn.Name(), desc, fd.Name.Name)
		return
	}

	// Interface-typed parameters receiving concrete non-pointer values.
	sigTV, ok := info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := sigTV.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // s... passes the slice itself; nothing boxes here
			}
			st, isSlice := params.At(params.Len() - 1).Type().Underlying().(*types.Slice)
			if !isSlice {
				continue
			}
			pt = st.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at := info.Types[arg].Type
		if at == nil || !boxes(at) {
			continue
		}
		report(arg.Pos(),
			"passing %s to interface parameter in %s %s heap-allocates the value (boxing)",
			at.String(), desc, fd.Name.Name)
	}
}

// boxes reports whether converting a value of type t to an interface
// allocates: true for concrete non-reference types (structs, strings,
// slices, numbers held in multiword forms...), false for pointers and
// other word-sized reference kinds, interfaces, and untyped nil.
func boxes(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return false
	case *types.Basic:
		b := t.Underlying().(*types.Basic)
		if b.Kind() == types.UntypedNil || b.Kind() == types.UnsafePointer {
			return false
		}
		return true
	}
	return true
}

func isSlice(t types.Type) bool {
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

type span struct{ lo, hi token.Pos }

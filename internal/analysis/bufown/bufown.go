// Package bufown tracks ownership of pooled datapath objects within and
// across function and package boundaries. The pooled types — wire.Packet
// (wire.Get / Retain / Release), tcp.Segment (tcp.NewSegment / Release),
// fabric.Frame (fabric.NewFrame, consumed by the fabric at Send) and the
// collective firmware's ring message (qpipnic (*NIC).getCollMsg / Retain /
// Release) — are recycled through free lists, so a reference that is neither
// released nor handed to a new owner is a leak that starves the pool, and
// a use after Release is a recycling race that corrupts a later packet.
//
// bufown computes one ownership summary per function and iterates them
// to a fixed point over the whole-program call graph:
//
//	consumes[i]  argument i (receiver first for methods) is consumed:
//	             the function releases it, stores it, returns it, or
//	             passes it on to another consuming function — the
//	             caller's reference obligation is discharged.
//	owned[i]     result i carries a fresh ownership obligation: the
//	             caller must consume what it receives.
//
// Both vectors are monotone (bits flip false->true only), so the
// fixpoint terminates. Seeds come from a small intrinsic table for the
// pool API itself (wire.Get returns owned; (*Packet).Release consumes
// its receiver; (*Packet).Retain is a pure borrow — the caller's
// reference survives); everything else is computed from bodies, with
// interface calls resolved through the call graph's conservative
// class-hierarchy analysis — which is how fabric.releasePayload's
// dynamic r.Release() is understood to consume the payload.
//
// Within a function, events that consume a tracked reference: calling a
// consuming method or passing at a consuming argument position; passing
// to a function whose body is not loaded (unknown callees are assumed
// to take ownership — optimistic, keeps external calls quiet); storing
// into a field, map, slice, global or channel; returning it; capturing
// it in a function literal (the repo's continuation style hands
// ownership to the bound closure — a reference acquired inside the
// literal is tracked there like any other). The ownership check is
// flow-insensitive: one consuming event anywhere in the function
// discharges the obligation. Three findings come out:
//
//   - a local acquires an owned object (from wire.Get, tcp.NewSegment,
//     fabric.NewFrame, or any function whose summary returns owned) and
//     no event ever consumes it — reported with the callees the value
//     was lent to, since "passed to foo" is only an alibi if foo takes
//     ownership;
//   - an owned result is discarded outright: the call is a bare
//     statement, assigned to _, or passed to a callee that is known not
//     to take ownership;
//   - a pooled object is used in straight-line code after a
//     statement-level v.Release() in the same block, before any
//     reassignment of v. Deferred releases run at exit and are exempt.
//
// Suppress with //lint:qpip-allow bufown <reason> on the flagged line.
// DESIGN §17 documents the summary format; the analysistest fixtures
// under testdata/src/bufown2 and testdata/src/bufownlocal are the
// executable specification.
package bufown

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"repro/internal/analysis/framework"
	"repro/internal/analysis/interproc"
)

const name = "bufown"

// Analyzer is the whole-program pooled-ownership check.
var Analyzer = &interproc.Analyzer{
	Name: name,
	Doc:  "track pooled buffer ownership (wire.Packet, tcp.Segment, fabric.Frame, qpipnic.collMsg) across calls: every acquired reference must be released or handed to a consuming owner",
	Run:  run,
}

// summary is one function's ownership contract. Both slices are indexed
// as documented on the package: consumes has the receiver at 0 for
// methods, then parameters; owned is indexed by result.
type summary struct {
	consumes []bool
	owned    []bool
}

func (s *summary) equal(o *summary) bool {
	if len(s.consumes) != len(o.consumes) || len(s.owned) != len(o.owned) {
		return false
	}
	for i := range s.consumes {
		if s.consumes[i] != o.consumes[i] {
			return false
		}
	}
	for i := range s.owned {
		if s.owned[i] != o.owned[i] {
			return false
		}
	}
	return true
}

// intrinsics is the pool API seed table, matched by package-path suffix
// (so fixtures can model the real packages), receiver type name ("" for
// plain functions) and function name.
type intrinsic struct {
	pkgSuffix, recv, fn string
	sum                 summary
	borrow              bool // Retain: touches the object without consuming the caller's ref
}

var intrinsics = []intrinsic{
	{pkgSuffix: "internal/wire", recv: "", fn: "Get", sum: summary{owned: []bool{true}}},
	{pkgSuffix: "internal/wire", recv: "Packet", fn: "Release", sum: summary{consumes: []bool{true}}},
	{pkgSuffix: "internal/wire", recv: "Packet", fn: "Retain", borrow: true},
	{pkgSuffix: "internal/tcp", recv: "", fn: "NewSegment", sum: summary{owned: []bool{true}}},
	{pkgSuffix: "internal/tcp", recv: "Segment", fn: "Release", sum: summary{consumes: []bool{true}}},
	// The frame carries its payload's reference to whoever consumes the
	// delivery (or releases it on a drop), so NewFrame consumes argument 3.
	{pkgSuffix: "internal/fabric", recv: "", fn: "NewFrame", sum: summary{consumes: []bool{false, false, false, true}, owned: []bool{true}}},
	{pkgSuffix: "internal/qpipnic", recv: "NIC", fn: "getCollMsg", sum: summary{consumes: []bool{false}, owned: []bool{true}}},
	{pkgSuffix: "internal/qpipnic", recv: "collMsg", fn: "Release", sum: summary{consumes: []bool{true}}},
	{pkgSuffix: "internal/qpipnic", recv: "collMsg", fn: "Retain", borrow: true},
}

// pooledNames lists the tracked types per package suffix; parameters of
// these types (or of interface type, which may hold one) seed tracking.
var pooledNames = map[string]string{
	"Packet":  "internal/wire",
	"Segment": "internal/tcp",
	"Frame":   "internal/fabric",
	"collMsg": "internal/qpipnic",
}

func lookupIntrinsic(fn *types.Func) (*intrinsic, bool) {
	if fn == nil || fn.Pkg() == nil {
		return nil, false
	}
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			recv = named.Obj().Name()
		}
	}
	for i := range intrinsics {
		in := &intrinsics[i]
		if in.fn == fn.Name() && in.recv == recv && framework.PathHasSuffix(fn.Pkg().Path(), in.pkgSuffix) {
			return in, true
		}
	}
	return nil, false
}

// pooledPointer reports whether t is *T for a tracked pooled type.
func pooledPointer(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	suffix, ok := pooledNames[named.Obj().Name()]
	return ok && framework.PathHasSuffix(named.Obj().Pkg().Path(), suffix)
}

// trackable reports whether a parameter of type t can carry a pooled
// reference worth summarizing: a pooled pointer or any interface. A type
// parameter counts as an interface (its underlying type is its
// constraint), which is how pool.Ring's Push(x T) is seen to consume x.
func trackable(t types.Type) bool {
	return pooledPointer(t) || types.IsInterface(t)
}

func run(pass *interproc.Pass) error {
	prog := pass.Prog
	g := prog.Graph

	// Interface call sites were already resolved by the graph; index the
	// candidate callees by call position so funcResult can consult
	// implementor summaries.
	candidates := map[token.Pos][]*interproc.Node{}
	for _, n := range g.All() {
		for _, e := range n.Out {
			if e.Kind == interproc.InterfaceCall {
				candidates[e.Pos] = append(candidates[e.Pos], e.Callee)
			}
		}
	}

	// Intrinsic pool functions keep their seeded summaries: their bodies
	// ARE the pool plumbing (sync.Pool, refcounts) and reading ownership
	// out of them would be circular. Everyone else starts empty.
	summaries := map[*interproc.Node]*summary{}
	frozen := map[*interproc.Node]bool{}
	for _, n := range g.All() {
		sum := newSummary(n)
		if in, ok := lookupIntrinsic(n.Fn); ok {
			copy(sum.consumes, in.sum.consumes)
			copy(sum.owned, in.sum.owned)
			frozen[n] = true
		}
		summaries[n] = sum
	}

	g.Fixpoint(func(n *interproc.Node) bool {
		if frozen[n] {
			return false
		}
		old := summaries[n]
		next := analyze(n, g, summaries, candidates, nil)
		if next.equal(old) {
			return false
		}
		summaries[n] = next
		return true
	})

	for _, n := range g.All() {
		if !frozen[n] {
			analyze(n, g, summaries, candidates, pass)
		}
	}
	for _, u := range prog.Units {
		for _, f := range u.Files {
			useAfterRelease(u.Info, f, pass.Reportf)
		}
	}
	return nil
}

// useAfterRelease flags straight-line uses of a pooled object after a
// statement-level v.Release() in the same statement list. Each list is
// checked on its own: a nested block, loop or branch starts afresh, and
// a deferred release runs at exit, so neither marks anything.
func useAfterRelease(info *types.Info, root ast.Node, report func(pos token.Pos, format string, args ...any)) {
	ast.Inspect(root, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.BlockStmt:
			straightLine(info, x.List, report)
		case *ast.CaseClause:
			straightLine(info, x.Body, report)
		case *ast.CommClause:
			straightLine(info, x.Body, report)
		}
		return true
	})
}

func straightLine(info *types.Info, stmts []ast.Stmt, report func(pos token.Pos, format string, args ...any)) {
	var released []types.Object
	for _, st := range stmts {
		switch st.(type) {
		case *ast.BlockStmt, *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt,
			*ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.DeferStmt:
			continue
		}
		// An assignment reads its right-hand side before the plain
		// identifiers on its left are rebound; a rebound name is live again.
		var scan []ast.Node
		var rebound []types.Object
		if asg, ok := st.(*ast.AssignStmt); ok {
			for _, rhs := range asg.Rhs {
				scan = append(scan, rhs)
			}
			for _, lhs := range asg.Lhs {
				if id, isID := lhs.(*ast.Ident); isID {
					rebound = append(rebound, info.Uses[id])
				} else {
					scan = append(scan, lhs)
				}
			}
		} else {
			scan = []ast.Node{st}
		}
		kept := released[:0]
		for _, obj := range released {
			if use := findUse(info, scan, obj); use != nil {
				report(use.Pos(),
					"use of pooled %q after %s.Release(): the object may already be recycled into another in-flight packet",
					obj.Name(), obj.Name())
				continue // one report per release
			}
			if !slices.Contains(rebound, obj) {
				kept = append(kept, obj)
			}
		}
		released = kept
		if es, ok := st.(*ast.ExprStmt); ok {
			if call, ok := es.X.(*ast.CallExpr); ok {
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Release" {
					if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
						if obj := info.Uses[id]; obj != nil && pooledPointer(obj.Type()) {
							released = append(released, obj)
						}
					}
				}
			}
		}
	}
}

// findUse returns the first identifier under nodes that refers to obj.
func findUse(info *types.Info, nodes []ast.Node, obj types.Object) ast.Node {
	var found ast.Node
	for _, n := range nodes {
		ast.Inspect(n, func(x ast.Node) bool {
			if id, ok := x.(*ast.Ident); ok && found == nil && info.Uses[id] == obj {
				found = id
			}
			return found == nil
		})
	}
	return found
}

// newSummary sizes a node's empty summary from its signature.
func newSummary(n *interproc.Node) *summary {
	sig := n.Fn.Type().(*types.Signature)
	nArgs := sig.Params().Len()
	if sig.Recv() != nil {
		nArgs++
	}
	return &summary{consumes: make([]bool, nArgs), owned: make([]bool, sig.Results().Len())}
}

// callTarget is a resolved callee's ownership view at one call site.
type callTarget struct {
	name     string // diagnostic name
	known    bool   // summary available (intrinsic or loaded body)
	borrow   bool   // Retain-style: never consumes
	consumes []bool
	owned    []bool
	hasRecv  bool
}

// resolveCall computes the ownership contract of call's callee. Unknown
// callees (no body loaded, no intrinsic) return known=false and are
// treated as consuming everything — external code is assumed correct.
// Interface calls merge their CHA candidates with OR.
func resolveCall(info *types.Info, call *ast.CallExpr, g *interproc.Graph, summaries map[*interproc.Node]*summary, candidates map[token.Pos][]*interproc.Node) callTarget {
	fn := framework.CalleeName(info, call)
	if fn == nil {
		return callTarget{name: "a function value"}
	}
	fn = fn.Origin()
	sig, _ := fn.Type().(*types.Signature)
	ct := callTarget{name: fn.Name(), hasRecv: sig != nil && sig.Recv() != nil}
	if fn.Pkg() != nil {
		ct.name = fn.Pkg().Name() + "." + fn.Name()
	}
	if in, ok := lookupIntrinsic(fn); ok {
		ct.known, ct.borrow = true, in.borrow
		ct.consumes, ct.owned = in.sum.consumes, in.sum.owned
		return ct
	}
	if node := g.Lookup(fn); node != nil {
		ct.known = true
		ct.consumes, ct.owned = summaries[node].consumes, summaries[node].owned
		return ct
	}
	if cands := candidates[call.Lparen]; len(cands) > 0 {
		// Dynamic dispatch: a position is consuming/owned when ANY loaded
		// implementation says so (optimistic merge; a pessimist would make
		// every borrow through an interface a finding).
		ct.known = true
		for _, c := range cands {
			s := summaries[c]
			for i, b := range s.consumes {
				for len(ct.consumes) <= i {
					ct.consumes = append(ct.consumes, false)
				}
				ct.consumes[i] = ct.consumes[i] || b
			}
			for i, b := range s.owned {
				for len(ct.owned) <= i {
					ct.owned = append(ct.owned, false)
				}
				ct.owned[i] = ct.owned[i] || b
			}
		}
		return ct
	}
	return ct // abstract method with no loaded implementors, or external
}

// consumesAt reports whether the target consumes the value passed as
// argument index arg (0-based over explicit arguments; the receiver is
// handled separately).
func (ct callTarget) consumesAt(arg int) bool {
	if !ct.known {
		return true // unknown callee: assume it takes ownership
	}
	if ct.borrow {
		return false
	}
	i := arg
	if ct.hasRecv {
		i++
	}
	return i < len(ct.consumes) && ct.consumes[i]
}

func (ct callTarget) consumesRecv() bool {
	if !ct.known {
		return true
	}
	return !ct.borrow && ct.hasRecv && len(ct.consumes) > 0 && ct.consumes[0]
}

func (ct callTarget) ownsResult(i int) bool {
	return ct.known && i < len(ct.owned) && ct.owned[i]
}

// acquisition is one locally created ownership obligation.
type acquisition struct {
	pos    token.Pos
	source string // "wire.Get", "fabric.NewFrame", ...
	typ    string // pooled type name for the message
}

// analyze walks one function. With pass == nil it only computes the
// summary (fixpoint mode); with a pass it re-walks with converged callee
// summaries and reports findings.
func analyze(n *interproc.Node, g *interproc.Graph, summaries map[*interproc.Node]*summary, candidates map[token.Pos][]*interproc.Node, pass *interproc.Pass) *summary {
	info := n.Unit.Info
	sum := newSummary(n)
	sig := n.Fn.Type().(*types.Signature)

	// Argument index (receiver first) per tracked parameter object.
	argIndex := map[types.Object]int{}
	idx := 0
	if recv := sig.Recv(); recv != nil {
		if trackable(recv.Type()) {
			argIndex[recv] = idx
		}
		idx++
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if p := sig.Params().At(i); trackable(p.Type()) {
			argIndex[p] = idx
		}
		idx++
	}

	// Pass A, in source order: acquisitions and aliases. canon maps every
	// alias (q := p, q := p.(*wire.Packet)) to its representative object.
	canon := map[types.Object]types.Object{}
	rep := func(o types.Object) types.Object {
		for canon[o] != nil {
			o = canon[o]
		}
		return o
	}
	acquired := map[types.Object]*acquisition{}
	isTracked := func(o types.Object) bool {
		o = rep(o)
		if _, ok := argIndex[o]; ok {
			return true
		}
		return acquired[o] != nil
	}

	report := func(pos token.Pos, format string, args ...any) {
		if pass != nil {
			pass.Reportf(pos, format, args...)
		}
	}

	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.AssignStmt:
			// q := p (or q = p), possibly through a type assertion: alias.
			if len(x.Lhs) == len(x.Rhs) {
				for i := range x.Lhs {
					lhs, ok := x.Lhs[i].(*ast.Ident)
					if !ok {
						continue
					}
					src := ast.Unparen(x.Rhs[i])
					if ta, ok := src.(*ast.TypeAssertExpr); ok {
						src = ast.Unparen(ta.X)
					}
					id, ok := src.(*ast.Ident)
					if !ok {
						continue
					}
					from, _ := info.Uses[id].(*types.Var)
					if from == nil || !isTracked(from) {
						continue
					}
					var to types.Object
					if x.Tok == token.DEFINE {
						to = info.Defs[lhs]
					} else {
						to = info.Uses[lhs]
					}
					if to != nil && to != rep(from) {
						canon[to] = rep(from)
					}
				}
			}
			// p := ownedCall(...): acquisition; _ = ownedCall(...): discard.
			if len(x.Rhs) == 1 {
				if call, ok := ast.Unparen(x.Rhs[0]).(*ast.CallExpr); ok {
					ct := resolveCall(info, call, g, summaries, candidates)
					for i, lhs := range x.Lhs {
						if !ct.ownsResult(i) {
							continue
						}
						id, ok := lhs.(*ast.Ident)
						if !ok {
							continue // stored straight into a field/map: consumed
						}
						if id.Name == "_" {
							report(call.Lparen, "owned %s from %s is discarded: the pooled object leaks", resultType(info, call, i), ct.name)
							continue
						}
						var obj types.Object
						if x.Tok == token.DEFINE {
							obj = info.Defs[id]
						} else {
							obj = info.Uses[id]
						}
						if v, ok := obj.(*types.Var); ok && obj.Parent() != obj.Pkg().Scope() {
							acquired[v] = &acquisition{pos: call.Lparen, source: ct.name, typ: resultType(info, call, i)}
						}
					}
				}
			}
		case *ast.ReturnStmt:
			// return wire.Get(): the owned result flows straight through,
			// making this function an owned source for its own callers.
			if len(x.Results) == 1 {
				if call, ok := ast.Unparen(x.Results[0]).(*ast.CallExpr); ok {
					ct := resolveCall(info, call, g, summaries, candidates)
					for i := range sum.owned {
						if ct.ownsResult(i) {
							sum.owned[i] = true
						}
					}
				}
			}
		case *ast.ExprStmt:
			// Bare owned call: result dropped on the floor.
			if call, ok := ast.Unparen(x.X).(*ast.CallExpr); ok {
				ct := resolveCall(info, call, g, summaries, candidates)
				for i := range resultCount(info, call) {
					if ct.ownsResult(i) {
						report(call.Lparen, "owned %s from %s is discarded: the pooled object leaks", resultType(info, call, i), ct.name)
					}
				}
			}
		case *ast.CallExpr:
			// Owned result fed straight to a callee that does not take
			// ownership: send(wire.Get()) is fine, log(wire.Get()) leaks.
			outer := resolveCall(info, x, g, summaries, candidates)
			for i, arg := range x.Args {
				inner, ok := ast.Unparen(arg).(*ast.CallExpr)
				if !ok {
					continue
				}
				ict := resolveCall(info, inner, g, summaries, candidates)
				if ict.ownsResult(0) && outer.known && !outer.consumesAt(i) {
					report(inner.Lparen, "owned %s from %s is passed to %s, which does not take ownership: the reference leaks", resultType(info, inner, 0), ict.name, outer.name)
				}
			}
		}
		return true
	})

	// Pass B: classify every use of a tracked object. One consuming event
	// discharges the obligation (flow-insensitive); borrows are collected
	// for the diagnostic.
	consumed := map[types.Object]bool{}
	borrows := map[types.Object][]string{}
	uses := &useWalker{
		info: info, rep: rep, isTracked: isTracked,
		g: g, summaries: summaries, candidates: candidates,
		consumed: consumed, borrows: borrows,
		returnOwned: func(resultIdx int, obj types.Object) {
			if a := acquired[rep(obj)]; a != nil && resultIdx < len(sum.owned) {
				sum.owned[resultIdx] = true
			}
		},
	}
	uses.walk(n.Decl.Body)

	for obj, i := range argIndex {
		if consumed[obj] {
			sum.consumes[i] = true
		}
	}

	if pass != nil {
		for obj, a := range acquired {
			if consumed[rep(obj)] || consumed[obj] {
				continue
			}
			msg := "%s acquired from %s is never released or handed off: the pooled object leaks"
			if bs := borrows[rep(obj)]; len(bs) > 0 {
				report(a.pos, msg+" (%s borrows it without taking ownership)", a.typ, a.source, strings.Join(dedup(bs), ", "))
			} else {
				report(a.pos, msg, a.typ, a.source)
			}
		}
	}
	return sum
}

func dedup(ss []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range ss {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// resultType names result i of call for diagnostics ("*wire.Packet").
func resultType(info *types.Info, call *ast.CallExpr, i int) string {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return "pooled object"
	}
	t := tv.Type
	if tuple, ok := t.(*types.Tuple); ok {
		if i >= tuple.Len() {
			return "pooled object"
		}
		t = tuple.At(i).Type()
	}
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

func resultCount(info *types.Info, call *ast.CallExpr) int {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return 0
	}
	if tuple, ok := tv.Type.(*types.Tuple); ok {
		return tuple.Len()
	}
	if _, ok := tv.Type.(*types.Basic); ok && tv.Type.String() == "()" {
		return 0
	}
	return 1
}

// useWalker classifies identifier uses with an explicit ancestor stack.
type useWalker struct {
	info      *types.Info
	rep       func(types.Object) types.Object
	isTracked func(types.Object) bool

	g          *interproc.Graph
	summaries  map[*interproc.Node]*summary
	candidates map[token.Pos][]*interproc.Node

	consumed    map[types.Object]bool
	borrows     map[types.Object][]string
	returnOwned func(resultIdx int, obj types.Object)

	stack []ast.Node
}

func (w *useWalker) walk(body ast.Node) {
	ast.Inspect(body, func(x ast.Node) bool {
		if x == nil {
			w.stack = w.stack[:len(w.stack)-1]
			return false
		}
		w.stack = append(w.stack, x)
		if id, ok := x.(*ast.Ident); ok {
			if v, isVar := w.info.Uses[id].(*types.Var); isVar && w.isTracked(v) {
				w.classify(id, w.rep(v))
			}
		}
		return true
	})
}

func (w *useWalker) consume(obj types.Object)           { w.consumed[obj] = true }
func (w *useWalker) borrow(obj types.Object, by string) { w.borrows[obj] = append(w.borrows[obj], by) }

// classify walks up from one tracked identifier use and decides whether
// this use consumes the reference, borrows it, or merely reads it.
func (w *useWalker) classify(id *ast.Ident, obj types.Object) {
	// Capture by a function literal hands the reference to the bound
	// continuation, whatever happens inside: consumed. A reference
	// declared inside the literal is not captured by it.
	for i := len(w.stack) - 2; i >= 0; i-- {
		if lit, ok := w.stack[i].(*ast.FuncLit); ok && (obj.Pos() < lit.Pos() || obj.Pos() >= lit.End()) {
			w.consume(obj)
			return
		}
	}

	var cur ast.Expr = id
	for i := len(w.stack) - 2; i >= 0; i-- {
		switch p := w.stack[i].(type) {
		case *ast.ParenExpr:
			cur = p
		case *ast.TypeAssertExpr:
			if p.X != cur {
				return
			}
			cur = p
		case *ast.SelectorExpr:
			if p.X != cur {
				return
			}
			switch sel := w.info.Uses[p.Sel].(type) {
			case *types.Var:
				return // field read
			case *types.Func:
				_ = sel
				// Method call or method value on the tracked object.
				if i > 0 {
					if call, ok := w.stack[i-1].(*ast.CallExpr); ok && ast.Unparen(call.Fun) == p {
						ct := resolveCall(w.info, call, w.g, w.summaries, w.candidates)
						if ct.consumesRecv() {
							w.consume(obj)
						} else {
							w.borrow(obj, ct.name)
						}
						return
					}
				}
				w.consume(obj) // method value: the bound value escapes
				return
			default:
				return
			}
		case *ast.CallExpr:
			if ast.Unparen(p.Fun) == cur {
				return // calling a func-typed value; not a pooled use
			}
			for ai, arg := range p.Args {
				if ast.Unparen(arg) != ast.Unparen(cur) && arg != cur {
					continue
				}
				ct := resolveCall(w.info, p, w.g, w.summaries, w.candidates)
				if ct.consumesAt(ai) {
					w.consume(obj)
				} else {
					w.borrow(obj, ct.name)
				}
				return
			}
			return
		case *ast.ReturnStmt:
			for ri, res := range p.Results {
				if ast.Unparen(res) == cur || res == cur {
					w.consume(obj)
					w.returnOwned(ri, obj)
					return
				}
			}
			return
		case *ast.AssignStmt:
			for ri, rhs := range p.Rhs {
				if ast.Unparen(rhs) != cur && rhs != cur {
					continue
				}
				if ri < len(p.Lhs) || len(p.Lhs) == 1 {
					li := ri
					if li >= len(p.Lhs) {
						li = 0
					}
					if lid, ok := p.Lhs[li].(*ast.Ident); ok {
						if lid.Name == "_" {
							return // _ = p: a read, not a handoff
						}
						var to types.Object
						if p.Tok == token.DEFINE {
							to = w.info.Defs[lid]
						} else {
							to = w.info.Uses[lid]
						}
						if v, ok := to.(*types.Var); ok && v.Parent() != nil && v.Pkg() != nil && v.Parent() != v.Pkg().Scope() {
							return // local alias; pass A linked it
						}
					}
				}
				w.consume(obj) // stored into a field, global, map or slice
				return
			}
			return // appears on the LHS: reassignment, not a use
		case *ast.CompositeLit, *ast.KeyValueExpr, *ast.SendStmt:
			w.consume(obj) // packed into a structure or sent away
			return
		case *ast.IndexExpr:
			w.consume(obj) // used as a map key or stored by index
			return
		case *ast.StarExpr, *ast.UnaryExpr, *ast.BinaryExpr:
			return // deref / comparison / arithmetic: reads
		default:
			return
		}
	}
}

package interproc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis/framework"
	"repro/internal/analysis/load"
)

// EdgeKind distinguishes how a call site was resolved.
type EdgeKind int

const (
	// StaticCall is a direct call of a named function or a method on a
	// concrete receiver: exactly one callee.
	StaticCall EdgeKind = iota
	// InterfaceCall is a dynamic method call through an interface value,
	// conservatively resolved to every loaded concrete type whose method
	// set satisfies the interface (class-hierarchy analysis).
	InterfaceCall
)

// Edge is one resolved call: Caller invokes Callee at Pos. An interface
// call produces one edge per candidate implementation, all sharing the
// call site.
type Edge struct {
	Caller, Callee *Node
	// Pos is the call site (the position suppression comments anchor to:
	// hotprop treats //lint:qpip-allow hotprop on this line as severing
	// the edge).
	Pos token.Pos
	// Kind records the resolution mode.
	Kind EdgeKind
	// Via names the interface method an InterfaceCall dispatched through
	// ("repro/internal/verbs.Device.SendDoorbell"), for diagnostics.
	Via string
}

// Node is one declared function or method with a body. Calls made inside
// function literals are attributed to the enclosing declaration: the
// literal runs with the declaration's dynamic context, and the repo's
// continuation style (closures bound once at construction) means hotness
// and ownership decisions belong to the declarer.
type Node struct {
	// Fn is the function object in its declaring (source-checked)
	// universe.
	Fn *types.Func
	// Decl is the declaration; Decl.Body is non-nil.
	Decl *ast.FuncDecl
	// Unit is the package the function is declared in.
	Unit *load.Package
	// Out and In are the resolved call edges.
	Out, In []*Edge
	// Annotations holds the function's //qpip:* doc-comment directives
	// ("qpip:hotpath", "qpip:barrier", ...), each on its own line.
	Annotations map[string]bool
}

// FullName is the universe-independent key: types.Func.FullName, e.g.
// "repro/internal/fabric.NewFrame" or
// "(*repro/internal/fabric.Fabric).Send".
func (n *Node) FullName() string { return n.Fn.FullName() }

// Name is a compact human form for diagnostics: pkgname.Func or
// pkgname.(*Recv).Method.
func (n *Node) Name() string {
	pkg := n.Fn.Pkg()
	short := pkg.Name()
	if sig, ok := n.Fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		star := ""
		if ptr, isPtr := t.(*types.Pointer); isPtr {
			t = ptr.Elem()
			star = "*"
		}
		if named, isNamed := t.(*types.Named); isNamed {
			return short + ".(" + star + named.Obj().Name() + ")." + n.Fn.Name()
		}
	}
	return short + "." + n.Fn.Name()
}

// Graph is the whole-program call graph.
type Graph struct {
	// Nodes maps FullName -> node, every declared function with a body.
	Nodes map[string]*Node
	// ordered preserves deterministic iteration: declaration order within
	// units, units in load order.
	ordered []*Node
}

// All returns every node in deterministic order.
func (g *Graph) All() []*Node { return g.ordered }

// Lookup resolves a function object (from any universe) to its node, or
// nil for functions without bodies in the loaded program (stdlib,
// interface methods).
func (g *Graph) Lookup(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	return g.Nodes[fn.Origin().FullName()]
}

// methodInfo is one entry of a concrete type's method set, pre-rendered
// for structural matching against interface requirements.
type methodInfo struct {
	node *Node  // declared body, when loaded
	sig  string // universe-independent signature key
}

// buildGraph constructs nodes, the concrete-type method index, and edges.
func buildGraph(prog *Program) *Graph {
	g := &Graph{Nodes: map[string]*Node{}}

	// Pass 1: one node per FuncDecl with a body.
	for _, u := range prog.Units {
		for _, f := range u.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := u.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &Node{Fn: fn, Decl: fd, Unit: u, Annotations: annotations(fd)}
				g.Nodes[n.FullName()] = n
				g.ordered = append(g.ordered, n)
			}
		}
	}

	// Pass 2: the concrete-type index for interface resolution. For every
	// named non-interface type declared in a loaded unit, record its full
	// (pointer-receiver) method set with rendered signatures; an entry
	// whose method body is loaded links to the node (promoted methods
	// link to the embedded type's declaration, which is where the body
	// lives).
	type typeMethods struct {
		methods map[string]methodInfo
	}
	var concrete []typeMethods
	for _, u := range prog.Units {
		scope := u.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			mset := types.NewMethodSet(types.NewPointer(named))
			if mset.Len() == 0 {
				continue
			}
			tm := typeMethods{methods: map[string]methodInfo{}}
			for i := 0; i < mset.Len(); i++ {
				m, ok := mset.At(i).Obj().(*types.Func)
				if !ok {
					continue
				}
				sig, ok := m.Type().(*types.Signature)
				if !ok {
					continue
				}
				tm.methods[m.Name()] = methodInfo{node: g.Lookup(m), sig: sigKey(sig)}
			}
			concrete = append(concrete, tm)
		}
	}

	// implementors resolves one interface type to the loaded methods every
	// satisfying concrete type provides for the called method name.
	ifaceCache := map[*types.Interface][]string{} // rendered requirements
	requirements := func(iface *types.Interface) []string {
		if req, ok := ifaceCache[iface]; ok {
			return req
		}
		var req []string
		for i := 0; i < iface.NumMethods(); i++ {
			m := iface.Method(i)
			if sig, ok := m.Type().(*types.Signature); ok {
				req = append(req, m.Name()+" "+sigKey(sig))
			}
		}
		ifaceCache[iface] = req
		return req
	}
	implementors := func(iface *types.Interface, method string) []*Node {
		req := requirements(iface)
		var out []*Node
		for _, tm := range concrete {
			satisfied := true
			for _, r := range req {
				name, sig, _ := strings.Cut(r, " ")
				mi, ok := tm.methods[name]
				if !ok || mi.sig != sig {
					satisfied = false
					break
				}
			}
			if !satisfied {
				continue
			}
			if mi, ok := tm.methods[method]; ok && mi.node != nil {
				out = append(out, mi.node)
			}
		}
		return out
	}

	// Pass 3: edges. Calls inside nested function literals belong to the
	// enclosing declaration.
	for _, n := range g.ordered {
		info := n.Unit.Info
		ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := framework.CalleeName(info, call)
			if fn == nil {
				return true // builtin, conversion, or call through a func value
			}
			fn = fn.Origin()
			if recvIface := interfaceReceiver(fn); recvIface != nil {
				via := ifaceName(fn) + "." + fn.Name()
				if fn.Pkg() != nil {
					via = fn.Pkg().Path() + "." + via
				}
				for _, callee := range implementors(recvIface, fn.Name()) {
					e := &Edge{Caller: n, Callee: callee, Pos: call.Lparen, Kind: InterfaceCall, Via: via}
					n.Out = append(n.Out, e)
					callee.In = append(callee.In, e)
				}
				return true
			}
			if callee := g.Lookup(fn); callee != nil {
				e := &Edge{Caller: n, Callee: callee, Pos: call.Lparen, Kind: StaticCall}
				n.Out = append(n.Out, e)
				callee.In = append(callee.In, e)
			}
			return true
		})
	}
	return g
}

// interfaceReceiver returns the receiver interface type when fn is an
// abstract interface method, nil otherwise.
func interfaceReceiver(fn *types.Func) *types.Interface {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	iface, _ := sig.Recv().Type().Underlying().(*types.Interface)
	return iface
}

// ifaceName names the interface a method belongs to, best-effort (the
// receiver of an abstract method is the named interface type).
func ifaceName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return "?"
	}
	t := sig.Recv().Type()
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return "interface"
}

// pathQual renders package references as full import paths, making the
// rendered form identical across the source and export-data universes.
func pathQual(p *types.Package) string { return p.Path() }

// sigKey renders a method signature (receiver excluded) into a
// universe-independent string: parameter and result types with full
// package-path qualifiers, plus the variadic marker. Parameter names are
// deliberately dropped — export data and source agree on types, not
// always on names.
func sigKey(sig *types.Signature) string {
	var b strings.Builder
	b.WriteByte('(')
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		if sig.Variadic() && i == params.Len()-1 {
			b.WriteString("...")
		}
		b.WriteString(types.TypeString(params.At(i).Type(), pathQual))
	}
	b.WriteString(")(")
	results := sig.Results()
	for i := 0; i < results.Len(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(types.TypeString(results.At(i).Type(), pathQual))
	}
	b.WriteByte(')')
	return b.String()
}

// annotations extracts //qpip:* directive lines from a doc comment.
func annotations(fd *ast.FuncDecl) map[string]bool {
	if fd.Doc == nil {
		return nil
	}
	var out map[string]bool
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if strings.HasPrefix(text, "qpip:") {
			if out == nil {
				out = map[string]bool{}
			}
			out[text] = true
		}
	}
	return out
}

// Package topo describes switched multi-hop fabric topologies: a graph of
// switches and endpoint attachments plus precomputed source routes. The
// paper's testbed is a single Myrinet switch (a star); this package keeps
// the star as the degenerate case and adds the cluster-scale shapes the
// scale-out experiments sweep — a ring, a 2D mesh with dimension-order
// routing, and a two-level fat tree — so internal/fabric can forward
// frames hop by hop along a route instead of assuming one crossbar.
//
// Everything here is immutable after Build: the graph and every route are
// computed eagerly and then only read, so shard engines may share one
// *Graph without synchronization. All iteration is over slices in index
// order — never over maps — keeping route construction deterministic
// (the qpiplint maporder contract).
package topo

import "fmt"

// Kind selects a topology family.
type Kind int

const (
	// None means no topology: the fabric uses its legacy single-star
	// fast path with no modeled switch graph.
	None Kind = iota
	// Star is one switch with every endpoint directly attached — the
	// paper's testbed, expressed as a one-hop route through the graph.
	Star
	// Ring is one switch per endpoint, linked in a cycle; routes take
	// the shorter direction (ties go clockwise).
	Ring
	// Mesh is a W x H grid, one switch per grid point, endpoints on the
	// first N switches, dimension-order (XY or YX) routed.
	Mesh
	// FatTree is a two-level Clos: leaves hold Arity endpoints each and
	// connect to Arity spines; cross-leaf routes go up to the spine
	// selected by the destination and back down.
	FatTree
)

// String names the kind for reports and flags.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Star:
		return "star"
	case Ring:
		return "ring"
	case Mesh:
		return "mesh"
	case FatTree:
		return "fattree"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind maps a flag string to a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "none", "":
		return None, nil
	case "star":
		return Star, nil
	case "ring":
		return Ring, nil
	case "mesh":
		return Mesh, nil
	case "fattree":
		return FatTree, nil
	}
	return None, fmt.Errorf("topo: unknown kind %q (star|ring|mesh|fattree)", s)
}

// Spec selects and parameterizes a topology.
type Spec struct {
	Kind Kind
	// W, H are the mesh dimensions. Zero means auto-factor: the smallest
	// near-square grid with W*H >= n.
	W, H int
	// YX selects YX dimension order for mesh routes (default XY).
	YX bool
	// Arity is the fat tree's endpoints-per-leaf (and spine count);
	// default 4.
	Arity int
}

// Hop is one switch traversal of a source route: the frame enters switch
// Sw on port In and leaves on port Out.
type Hop struct {
	Sw, In, Out int
}

// Port describes what one switch port connects to. Exactly one of Ep and
// Sw is >= 0 (or both are -1 for an unwired port, e.g. a mesh edge).
type Port struct {
	// Ep is the attached endpoint, or -1.
	Ep int
	// Sw / In identify the peer switch port (frames leaving here enter
	// switch Sw on port In), or -1.
	Sw, In int
}

func epPort(ep int) Port      { return Port{Ep: ep, Sw: -1, In: -1} }
func swPort(sw, in int) Port  { return Port{Ep: -1, Sw: sw, In: in} }
func unwired() Port           { return Port{Ep: -1, Sw: -1, In: -1} }
func (p Port) Wired() bool    { return p.Ep >= 0 || p.Sw >= 0 }
func (p Port) Endpoint() bool { return p.Ep >= 0 }

// Graph is an immutable switch graph with every endpoint-pair route
// precomputed. Build it once; share it freely across shard engines.
type Graph struct {
	spec Spec
	n    int
	// switches[s][p] is switch s's port table.
	switches [][]Port
	// home[e] / homePort[e] locate endpoint e's attachment switch port.
	home, homePort []int
	// routes[src*n+dst] is the hop vector from src to dst.
	routes [][]Hop
}

// Endpoints reports the number of endpoint attachments.
func (g *Graph) Endpoints() int { return g.n }

// Switches reports the number of switches.
func (g *Graph) Switches() int { return len(g.switches) }

// Ports reports switch s's port count.
func (g *Graph) Ports(s int) int { return len(g.switches[s]) }

// PortAt reports what switch s's port p connects to.
func (g *Graph) PortAt(s, p int) Port { return g.switches[s][p] }

// Route reports the precomputed hop vector from src to dst. The returned
// slice is shared and read-only.
func (g *Graph) Route(src, dst int) []Hop { return g.routes[src*g.n+dst] }

// Diameter reports the longest precomputed route's hop count.
func (g *Graph) Diameter() int {
	d := 0
	for _, r := range g.routes {
		if len(r) > d {
			d = len(r)
		}
	}
	return d
}

// Build constructs the graph for spec over n endpoints and precomputes
// all n*n routes. It panics on an invalid spec — topology is build-time
// configuration, not runtime input.
func Build(spec Spec, n int) *Graph {
	if n < 1 {
		panic("topo: need at least one endpoint")
	}
	g := &Graph{spec: spec, n: n}
	switch spec.Kind {
	case Star:
		g.buildStar()
	case Ring:
		g.buildRing()
	case Mesh:
		g.buildMesh()
	case FatTree:
		g.buildFatTree()
	default:
		panic(fmt.Sprintf("topo: cannot build kind %v", spec.Kind))
	}
	g.homes()
	g.routeAll()
	g.validate()
	return g
}

// buildStar wires one switch with port i <-> endpoint i.
func (g *Graph) buildStar() {
	ports := make([]Port, g.n)
	for i := range ports {
		ports[i] = epPort(i)
	}
	g.switches = [][]Port{ports}
}

// buildRing wires switch i: port 0 = endpoint i, port 1 = clockwise link
// (to switch i+1's port 2), port 2 = counter-clockwise (to switch i-1's
// port 1).
func (g *Graph) buildRing() {
	n := g.n
	g.switches = make([][]Port, n)
	for i := 0; i < n; i++ {
		if n == 1 {
			g.switches[i] = []Port{epPort(i)}
			continue
		}
		cw, ccw := (i+1)%n, (i-1+n)%n
		g.switches[i] = []Port{epPort(i), swPort(cw, 2), swPort(ccw, 1)}
	}
}

// meshDims resolves the grid size: explicit W/H, or the smallest
// near-square grid covering n.
func (g *Graph) meshDims() (w, h int) {
	w, h = g.spec.W, g.spec.H
	if w <= 0 && h <= 0 {
		for w = 1; w*w < g.n; w++ {
		}
		h = (g.n + w - 1) / w
		return w, h
	}
	if w <= 0 || h <= 0 {
		panic("topo: mesh W and H must both be set (or both zero for auto)")
	}
	if w*h < g.n {
		panic(fmt.Sprintf("topo: %dx%d mesh cannot hold %d endpoints", w, h, g.n))
	}
	return w, h
}

// Mesh port numbering: 0 = endpoint, 1 = +X (east), 2 = -X (west),
// 3 = +Y (north), 4 = -Y (south). A link leaving +X enters the peer's -X
// port and vice versa; same for Y.
const (
	meshPortEp = 0
	meshPortPX = 1
	meshPortNX = 2
	meshPortPY = 3
	meshPortNY = 4
)

func (g *Graph) buildMesh() {
	w, h := g.meshDims()
	g.switches = make([][]Port, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			s := y*w + x
			ports := []Port{unwired(), unwired(), unwired(), unwired(), unwired()}
			if s < g.n {
				ports[meshPortEp] = epPort(s)
			}
			if x+1 < w {
				ports[meshPortPX] = swPort(s+1, meshPortNX)
			}
			if x > 0 {
				ports[meshPortNX] = swPort(s-1, meshPortPX)
			}
			if y+1 < h {
				ports[meshPortPY] = swPort(s+w, meshPortNY)
			}
			if y > 0 {
				ports[meshPortNY] = swPort(s-w, meshPortPY)
			}
			g.switches[s] = ports
		}
	}
}

// buildFatTree wires a two-level Clos. With E = Arity endpoints per leaf
// and L = ceil(n/E) leaves, leaves are switches 0..L-1 (ports 0..E-1 down
// to endpoints, E..E+S-1 up to spines) and, when L > 1, S = E spines are
// switches L..L+S-1 (port l down to leaf l's uplink). A single leaf needs
// no spines and degenerates to the star.
func (g *Graph) buildFatTree() {
	e := g.spec.Arity
	if e <= 0 {
		e = 4
	}
	g.spec.Arity = e
	leaves := (g.n + e - 1) / e
	spines := 0
	if leaves > 1 {
		spines = e
	}
	g.switches = make([][]Port, leaves+spines)
	for l := 0; l < leaves; l++ {
		ports := make([]Port, e+spines)
		for p := 0; p < e; p++ {
			if ep := l*e + p; ep < g.n {
				ports[p] = epPort(ep)
			} else {
				ports[p] = unwired()
			}
		}
		for s := 0; s < spines; s++ {
			ports[e+s] = swPort(leaves+s, l)
		}
		g.switches[l] = ports
	}
	for s := 0; s < spines; s++ {
		ports := make([]Port, leaves)
		for l := 0; l < leaves; l++ {
			ports[l] = swPort(l, e+s)
		}
		g.switches[leaves+s] = ports
	}
}

// homes fills the endpoint -> home switch port index.
func (g *Graph) homes() {
	g.home = make([]int, g.n)
	g.homePort = make([]int, g.n)
	for i := range g.home {
		g.home[i] = -1
	}
	for s, ports := range g.switches {
		for p, pt := range ports {
			if pt.Endpoint() {
				g.home[pt.Ep] = s
				g.homePort[pt.Ep] = p
			}
		}
	}
	for e, s := range g.home {
		if s < 0 {
			panic(fmt.Sprintf("topo: endpoint %d attached nowhere", e))
		}
	}
}

// routeAll precomputes every pair's route eagerly; lazy fill would race
// when shard engines route concurrently.
func (g *Graph) routeAll() {
	g.routes = make([][]Hop, g.n*g.n)
	for src := 0; src < g.n; src++ {
		for dst := 0; dst < g.n; dst++ {
			g.routes[src*g.n+dst] = g.route(src, dst)
		}
	}
}

func (g *Graph) route(src, dst int) []Hop {
	switch g.spec.Kind {
	case Star:
		return []Hop{{Sw: 0, In: src, Out: dst}}
	case Ring:
		return g.routeRing(src, dst)
	case Mesh:
		return g.routeMesh(src, dst)
	case FatTree:
		return g.routeFatTree(src, dst)
	}
	panic("topo: unroutable kind")
}

func (g *Graph) routeRing(src, dst int) []Hop {
	n := g.n
	if src == dst || n == 1 {
		return []Hop{{Sw: src, In: 0, Out: 0}}
	}
	fwd := (dst - src + n) % n
	if fwd <= n-fwd {
		// Clockwise (ties go clockwise): out port 1, entering each peer
		// on port 2.
		hops := make([]Hop, 0, fwd+1)
		in := 0
		for j := 0; j < fwd; j++ {
			hops = append(hops, Hop{Sw: (src + j) % n, In: in, Out: 1})
			in = 2
		}
		return append(hops, Hop{Sw: dst, In: 2, Out: 0})
	}
	back := n - fwd
	hops := make([]Hop, 0, back+1)
	in := 0
	for j := 0; j < back; j++ {
		hops = append(hops, Hop{Sw: (src - j + n) % n, In: in, Out: 2})
		in = 1
	}
	return append(hops, Hop{Sw: dst, In: 1, Out: 0})
}

func (g *Graph) routeMesh(src, dst int) []Hop {
	w, _ := g.meshDims()
	sx, sy := src%w, src/w
	dx, dy := dst%w, dst/w
	var hops []Hop
	cur, in := src, meshPortEp
	step := func(out, peerIn, delta int) {
		hops = append(hops, Hop{Sw: cur, In: in, Out: out})
		cur, in = cur+delta, peerIn
	}
	xSteps := func() {
		for x := sx; x < dx; x++ {
			step(meshPortPX, meshPortNX, 1)
		}
		for x := sx; x > dx; x-- {
			step(meshPortNX, meshPortPX, -1)
		}
	}
	ySteps := func() {
		for y := sy; y < dy; y++ {
			step(meshPortPY, meshPortNY, w)
		}
		for y := sy; y > dy; y-- {
			step(meshPortNY, meshPortPY, -w)
		}
	}
	if g.spec.YX {
		ySteps()
		xSteps()
	} else {
		xSteps()
		ySteps()
	}
	return append(hops, Hop{Sw: cur, In: in, Out: meshPortEp})
}

func (g *Graph) routeFatTree(src, dst int) []Hop {
	e := g.spec.Arity
	leaves := (g.n + e - 1) / e
	ls, ld := src/e, dst/e
	if ls == ld {
		return []Hop{{Sw: ls, In: src % e, Out: dst % e}}
	}
	// Spine selection by destination spreads down-links evenly and is a
	// pure function of the pair — deterministic and contention-spreading.
	sp := dst % e
	return []Hop{
		{Sw: ls, In: src % e, Out: e + sp},
		{Sw: leaves + sp, In: ls, Out: ld},
		{Sw: ld, In: e + sp, Out: dst % e},
	}
}

// validate checks structural invariants: link symmetry, endpoint homes,
// and that every route walks real consecutive links from src to dst.
func (g *Graph) validate() {
	for s, ports := range g.switches {
		for p, pt := range ports {
			if !pt.Wired() {
				continue
			}
			if pt.Endpoint() {
				if g.home[pt.Ep] != s || g.homePort[pt.Ep] != p {
					panic(fmt.Sprintf("topo: endpoint %d home mismatch at sw%d.p%d", pt.Ep, s, p))
				}
				continue
			}
			back := g.switches[pt.Sw][pt.In]
			if back.Sw != s || back.In != p {
				panic(fmt.Sprintf("topo: asymmetric link sw%d.p%d -> sw%d.p%d", s, p, pt.Sw, pt.In))
			}
		}
	}
	for src := 0; src < g.n; src++ {
		for dst := 0; dst < g.n; dst++ {
			g.checkRoute(src, dst, g.Route(src, dst))
		}
	}
}

func (g *Graph) checkRoute(src, dst int, hops []Hop) {
	bad := func(why string) {
		panic(fmt.Sprintf("topo: bad route %d->%d %v: %s", src, dst, hops, why))
	}
	if len(hops) == 0 {
		bad("empty")
	}
	first := hops[0]
	if first.Sw != g.home[src] || first.In != g.homePort[src] {
		bad("does not start at source's home port")
	}
	for i, h := range hops {
		if h.Sw < 0 || h.Sw >= len(g.switches) || h.In < 0 || h.Out < 0 ||
			h.In >= len(g.switches[h.Sw]) || h.Out >= len(g.switches[h.Sw]) {
			bad("hop out of range")
		}
		out := g.switches[h.Sw][h.Out]
		if i == len(hops)-1 {
			if out.Ep != dst {
				bad("last hop does not exit at destination")
			}
			continue
		}
		next := hops[i+1]
		if out.Sw != next.Sw || out.In != next.In {
			bad("consecutive hops not linked")
		}
	}
}

// Package framework owns the two repo-wide policies every qpiplint
// analyzer shares:
//
//   - which packages count as "simulated" (the paper's firmware FSMs, the
//     protocol stacks, and everything else that must stay deterministic
//     under the DESIGN §8 replay contract), versus harness code (bench,
//     cmd, scripts, examples) that legitimately touches wall clocks and
//     goroutines; and
//
//   - the suppression convention: a finding is dropped when the flagged
//     line, or the line directly above it, carries a comment of the form
//
//     //lint:qpip-allow <analyzer> <reason>
//
//     The reason is mandatory — an allow with no justification does not
//     suppress anything, so every exception in the tree documents itself.
//
// The analyzer type and its runner live in internal/analysis/interproc.
package framework

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Allow is one //lint:qpip-allow comment.
type Allow struct {
	// Pos is the comment's position.
	Pos token.Position
	// Analyzer is the name the comment suppresses.
	Analyzer string
	// Used records that the allow suppressed a finding or, for hotprop,
	// severed a propagation edge. An unused allow is stale.
	Used bool
}

// AllowSet indexes every allow by the file lines it covers. The
// interprocedural analyzers consult it directly: hotprop treats an allow
// on a call site as severing that propagation edge.
type AllowSet struct {
	list  []*Allow
	lines map[string]map[int][]*Allow
}

// AllowPrefix is the suppression comment marker. The full form is
// "//lint:qpip-allow <analyzer> <reason...>"; the reason is required.
const AllowPrefix = "lint:qpip-allow"

// CollectAllows scans the files' comments for //lint:qpip-allow markers.
func CollectAllows(fset *token.FileSet, files []*ast.File) *AllowSet {
	set := &AllowSet{lines: map[string]map[int][]*Allow{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, AllowPrefix) {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, AllowPrefix))
				if len(fields) < 2 {
					continue // analyzer name plus a reason are both required
				}
				a := &Allow{Pos: fset.Position(c.Pos()), Analyzer: fields[0]}
				set.list = append(set.list, a)
				lines := set.lines[a.Pos.Filename]
				if lines == nil {
					lines = map[int][]*Allow{}
					set.lines[a.Pos.Filename] = lines
				}
				// The allow covers its own line (trailing comment) and the
				// line below it (own-line comment above the flagged code).
				lines[a.Pos.Line] = append(lines[a.Pos.Line], a)
				lines[a.Pos.Line+1] = append(lines[a.Pos.Line+1], a)
			}
		}
	}
	return set
}

// Allows reports whether a finding by analyzer at pos is suppressed, and
// marks the suppressing allows used.
func (s *AllowSet) Allows(analyzer string, pos token.Position) bool {
	hit := false
	for _, a := range s.lines[pos.Filename][pos.Line] {
		if a.Analyzer == analyzer {
			a.Used = true
			hit = true
		}
	}
	return hit
}

// All returns every allow in scan order.
func (s *AllowSet) All() []*Allow { return s.list }

// PathHasSuffix reports whether the import path equals suffix or ends in
// "/"+suffix — the package-matching convention every analyzer uses so the
// analysistest fixtures can model real packages with small stand-ins.
func PathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// simulatedSuffixes lists the import-path tails of the simulated packages:
// everything modeling the paper's hardware, firmware, and protocol stacks.
// Matching is by path suffix (with a segment boundary) rather than exact
// path so the analysistest fixtures can stand up small packages like
// "simclock/internal/tcp" that the analyzers treat exactly like the real
// tree. Harness code — internal/bench (the PR 2 parallel sweep runner),
// cmd/, scripts/, examples/, and the analysis tree itself — is absent from
// the list and therefore exempt.
var simulatedSuffixes = []string{
	"internal/sim",
	"internal/sim/par", // suffix matching is per-entry: the subpackage needs its own
	"internal/tcp",
	"internal/udp",
	"internal/inet",
	"internal/fabric",
	"internal/topo",
	"internal/qpipnic",
	"internal/verbs",
	"internal/hw",
	"internal/hostos",
	"internal/core",
	"internal/buf",
	"internal/pool",
	"internal/wire",
	"internal/fault",
	"internal/trace",
	"internal/gige",
	"internal/gm",
	"internal/nbd",
	"internal/storage",
	"internal/params",
}

// SimulatedPackage reports whether the import path names a package whose
// code runs inside the deterministic simulation and is therefore subject
// to the simclock / nogoroutine / maporder invariants.
func SimulatedPackage(path string) bool {
	for _, suf := range simulatedSuffixes {
		if PathHasSuffix(path, suf) {
			return true
		}
	}
	return false
}

// ShardRunnerPackage reports whether the import path names the
// conservative parallel runner (internal/sim/par) — the ONE simulated
// package where goroutines and sync primitives are legal. Its whole job is
// to drive shard engines on worker goroutines and park them at epoch
// barriers; every other simulated package must still model concurrency
// with sim.Proc/sim.Server, so nogoroutine exempts exactly this path.
// internal/sim is not exempt and needs no allow: sim.Proc hands off
// through iter.Pull coroutines, not a goroutine of its own.
func ShardRunnerPackage(path string) bool {
	return PathHasSuffix(path, "internal/sim/par")
}

// CalleeName resolves the called function/method object of call, or nil
// for builtins, conversions and calls through function-typed values.
func CalleeName(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// IsPanicCall reports whether call invokes the panic built-in.
func IsPanicCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

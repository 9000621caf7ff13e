// Package framework is the skeleton under qpiplint's domain analyzers: a
// deliberately small, dependency-free mirror of the golang.org/x/tools
// go/analysis shape (Analyzer, Pass, Diagnostic). The container image that
// builds this repo carries only the Go toolchain, so the suite is built on
// the standard library's go/ast + go/types instead of x/tools; the API is
// kept close enough that the analyzers would port to a real multichecker
// by swapping one import.
//
// The framework also owns the two repo-wide policies every analyzer shares:
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
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name is the analyzer's identifier, used in diagnostics and in
	// //lint:qpip-allow suppression comments.
	Name string
	// Doc is the one-paragraph description shown by qpiplint -help.
	Doc string
	// Run inspects one package via pass and reports findings through
	// pass.Reportf. A non-nil error aborts the whole lint run (reserved
	// for internal failures, not findings).
	Run func(pass *Pass) error
}

// Pass carries one package's syntax and type information to an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf records a finding.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Finding is a suppression-filtered diagnostic with its analyzer and
// resolved position, ready to print.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Analyzer)
}

// Run applies analyzers to one loaded package and returns the findings
// that survive //lint:qpip-allow suppression, sorted by position.
func Run(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Finding, error) {
	allow := CollectAllows(fset, files)
	var out []Finding
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		for _, d := range pass.diags {
			pos := fset.Position(d.Pos)
			// Tests drive the simulation from outside and may use wall
			// clocks, goroutines and fmt freely; under `go vet` the package
			// unit includes its _test.go files, so exempt them here.
			if strings.HasSuffix(pos.Filename, "_test.go") {
				continue
			}
			if allow.Allows(a.Name, pos) {
				continue
			}
			out = append(out, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// AllowSet maps file -> line -> analyzer names allowed on that line. The
// interprocedural analyzers consult it directly: hotprop treats an allow
// on a call site as severing that propagation edge, so the set is part of
// the framework's public surface, not just Run's internal filter.
type AllowSet map[string]map[int]map[string]bool

// AllowPrefix is the suppression comment marker. The full form is
// "//lint:qpip-allow <analyzer> <reason...>"; the reason is required.
const AllowPrefix = "lint:qpip-allow"

// CollectAllows scans the files' comments for //lint:qpip-allow markers.
// Call it once per package (or, for whole-program analyzers, once over
// every loaded file) and query with Allows.
func CollectAllows(fset *token.FileSet, files []*ast.File) AllowSet {
	set := AllowSet{}
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
				pos := fset.Position(c.Pos())
				lines := set[pos.Filename]
				if lines == nil {
					lines = map[int]map[string]bool{}
					set[pos.Filename] = lines
				}
				// The allow covers its own line (trailing comment) and the
				// line below it (own-line comment above the flagged code).
				for _, ln := range []int{pos.Line, pos.Line + 1} {
					m := lines[ln]
					if m == nil {
						m = map[string]bool{}
						lines[ln] = m
					}
					m[fields[0]] = true
				}
			}
		}
	}
	return set
}

// Allows reports whether a finding by analyzer at pos is suppressed.
func (s AllowSet) Allows(analyzer string, pos token.Position) bool {
	lines := s[pos.Filename]
	if lines == nil {
		return false
	}
	return lines[pos.Line][analyzer]
}

// Merge folds other into s (whole-program allow collection).
func (s AllowSet) Merge(other AllowSet) {
	for file, lines := range other {
		m := s[file]
		if m == nil {
			s[file] = lines
			continue
		}
		for ln, names := range lines {
			if m[ln] == nil {
				m[ln] = names
				continue
			}
			for n := range names {
				m[ln][n] = true
			}
		}
	}
}

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
		if path == suf || strings.HasSuffix(path, "/"+suf) {
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
	const suf = "internal/sim/par"
	return path == suf || strings.HasSuffix(path, "/"+suf)
}

// CalleeName resolves the called function/method object of call, or nil
// for calls through function-typed variables and built-ins.
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

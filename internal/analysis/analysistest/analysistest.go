// Package analysistest runs one qpiplint analyzer over a golden fixture
// tree and checks its findings against inline expectations, mirroring
// golang.org/x/tools/go/analysis/analysistest on the standard library
// only. The fixture is loaded as one whole program, exactly like the
// real tree under qpiplint.
//
// A fixture lives under internal/analysis/testdata/src/<name>/...; every
// directory holding .go files is one package whose import path is its
// path relative to testdata/src (so "simclock/internal/tcp" ends in a
// simulated-package suffix and is linted exactly like the real tree).
// Fixture packages may import each other by those paths and may import
// the standard library; stdlib imports resolve through compiled export
// data from one `go list -deps -export -json` call.
//
// Expectations are comments of the form
//
//	code() // want `regexp`
//	code() // want "regexp"
//
// Each finding must match one want on its line, and each want must be
// matched by a finding; //lint:qpip-allow suppression runs before
// matching, so an allowed line simply carries no want. An allow that
// names another analyzer, or suppresses nothing, is itself a finding.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis/interproc"
	"repro/internal/analysis/load"
)

// fixturePkg is one package of the fixture tree before type checking.
type fixturePkg struct {
	path    string // import path, relative to the src root
	files   []*ast.File
	imports []string
}

// Run loads the whole fixture tree under root/fixture into one
// interproc.Program, applies a, and compares the findings with the
// // want expectations. All fixture packages are checked first and then
// analyzed together, since call chains may cross package boundaries.
func Run(t *testing.T, a *interproc.Analyzer, root, fixture string) {
	t.Helper()

	fset := token.NewFileSet()
	pkgs, err := parseFixture(fset, root, fixture)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s has no packages under %s", fixture, root)
	}

	imp, err := buildImporter(fset, pkgs)
	if err != nil {
		t.Fatalf("resolving fixture imports: %v", err)
	}

	var units []*load.Package
	for _, fp := range sortTopo(pkgs) {
		checked, err := load.CheckParsed(fset, fp.path, fp.files, imp)
		if err != nil {
			t.Fatalf("type-checking fixture package %s: %v", fp.path, err)
		}
		imp.checked[fp.path] = checked.Types
		units = append(units, checked)
	}

	only := []*interproc.Analyzer{a}
	findings, err := interproc.Run(interproc.NewProgram(fset, units), only, only)
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	match(t, fset, pkgs, findings)
}

// parseFixture discovers and parses every package directory in the tree.
func parseFixture(fset *token.FileSet, root, fixture string) (map[string]*fixturePkg, error) {
	pkgs := map[string]*fixturePkg{}
	start := filepath.Join(root, fixture)
	err := filepath.WalkDir(start, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		ipath := filepath.ToSlash(rel)
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		fp := pkgs[ipath]
		if fp == nil {
			fp = &fixturePkg{path: ipath}
			pkgs[ipath] = fp
		}
		fp.files = append(fp.files, f)
		for _, spec := range f.Imports {
			if dep, err := strconv.Unquote(spec.Path.Value); err == nil {
				fp.imports = append(fp.imports, dep)
			}
		}
		return nil
	})
	return pkgs, err
}

// fixtureImporter serves fixture packages from the checked map and
// everything else (the stdlib) from compiled export data.
type fixtureImporter struct {
	checked map[string]*types.Package
	std     types.Importer
}

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	if p, ok := fi.checked[path]; ok {
		return p, nil
	}
	if fi.std == nil {
		return nil, fmt.Errorf("fixture import %q not yet checked and no stdlib importer", path)
	}
	return fi.std.Import(path)
}

func buildImporter(fset *token.FileSet, pkgs map[string]*fixturePkg) (*fixtureImporter, error) {
	stdSet := map[string]bool{}
	for _, fp := range pkgs {
		for _, dep := range fp.imports {
			if pkgs[dep] == nil {
				stdSet[dep] = true
			}
		}
	}
	fi := &fixtureImporter{checked: map[string]*types.Package{}}
	if len(stdSet) > 0 {
		std := make([]string, 0, len(stdSet))
		for p := range stdSet {
			std = append(std, p)
		}
		sort.Strings(std)
		exports, err := load.Exports(std...)
		if err != nil {
			return nil, err
		}
		fi.std = importer.ForCompiler(fset, "gc", load.ExportLookup(exports))
	}
	return fi, nil
}

// sortTopo orders fixture packages so dependencies check before
// dependents (fixture trees are tiny; cycles would fail type checking
// anyway, so a missing dependency is simply reported there).
func sortTopo(pkgs map[string]*fixturePkg) []*fixturePkg {
	paths := make([]string, 0, len(pkgs))
	for p := range pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	var order []*fixturePkg
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(string)
	visit = func(p string) {
		fp := pkgs[p]
		if fp == nil || state[p] != 0 {
			return
		}
		state[p] = 1
		for _, dep := range fp.imports {
			visit(dep)
		}
		state[p] = 2
		order = append(order, fp)
	}
	for _, p := range paths {
		visit(p)
	}
	return order
}

// expectation is one parsed // want comment.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

var wantRE = regexp.MustCompile("want[ \t]+(`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\")")

func parseWants(t *testing.T, fset *token.FileSet, pkgs map[string]*fixturePkg) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, fp := range pkgs {
		for _, f := range fp.files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					for _, m := range wantRE.FindAllStringSubmatch(c.Text, -1) {
						lit := m[1]
						var pat string
						if lit[0] == '`' {
							pat = lit[1 : len(lit)-1]
						} else {
							var err error
							pat, err = strconv.Unquote(lit)
							if err != nil {
								t.Fatalf("bad want literal %s: %v", lit, err)
							}
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("bad want regexp %q: %v", pat, err)
						}
						pos := fset.Position(c.Pos())
						wants = append(wants, &expectation{
							file: pos.Filename, line: pos.Line, re: re, raw: pat,
						})
					}
				}
			}
		}
	}
	return wants
}

// match pairs findings with expectations one-to-one and reports both
// unexpected findings and unmet expectations.
func match(t *testing.T, fset *token.FileSet, pkgs map[string]*fixturePkg, findings []interproc.Finding) {
	t.Helper()
	wants := parseWants(t, fset, pkgs)
	for _, f := range findings {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(f.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no finding matched want %q", w.file, w.line, w.raw)
		}
	}
}

// Package load turns package patterns into parsed, type-checked packages
// for qpiplint, using only the standard library and the go command.
//
// The strategy mirrors what golang.org/x/tools/go/packages does in
// LoadAllSyntax mode, cut down to this repo's needs: one `go list -deps
// -export -json` invocation yields every target package's file list plus
// compiled export data for the whole dependency graph (stdlib included),
// and each target is then parsed with go/parser and type-checked with
// go/types, resolving imports through the export data via go/importer's
// lookup mode. Export-data resolution means imports type-check without
// re-walking their sources, and works offline — nothing is fetched.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one parsed and type-checked package.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listPackage is the subset of `go list -json` output the loader reads.
type listPackage struct {
	ImportPath string
	Dir        string
	Standard   bool
	DepOnly    bool
	Export     string
	GoFiles    []string
	Error      *struct{ Err string }
}

// Load lists patterns with the go command and returns every matched
// package, parsed and type-checked. Dependencies (including intra-module
// ones) are resolved from compiled export data, so only the matched
// packages' sources are parsed.
func Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	targets, exports, err := goList(patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", ExportLookup(exports))
	var pkgs []*Package
	for _, t := range targets {
		if len(t.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range t.GoFiles {
			// Comments are retained: the suppression scanner and the
			// //qpip:* annotations both need them.
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		pkg, err := CheckParsed(fset, t.ImportPath, files, imp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// Exports returns the import-path -> compiled-export-data-file map for
// the whole graph listed by patterns, without parsing anything. The
// analysistest fixture loader uses it to resolve the handful of stdlib
// imports fixtures make (time, sync, fmt).
func Exports(patterns ...string) (map[string]string, error) {
	_, exports, err := goList(patterns)
	return exports, err
}

// goList runs `go list -deps -export -json` and returns the matched
// non-standard packages plus the export-data map for the whole graph.
func goList(patterns []string) ([]*listPackage, map[string]string, error) {
	args := append([]string{"list", "-deps", "-export", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list failed: %v\n%s", err, stderr.String())
	}
	var targets []*listPackage
	exports := map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("parsing go list output: %v", err)
		}
		if p.Error != nil {
			return nil, nil, fmt.Errorf("package %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			targets = append(targets, &p)
		}
	}
	return targets, exports, nil
}

// ExportLookup builds the go/importer lookup function over a map from
// import path to compiled export-data file.
func ExportLookup(exports map[string]string) func(path string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
}

// CheckParsed type-checks already-parsed files as one package.
func CheckParsed(fset *token.FileSet, importPath string, files []*ast.File, imp types.Importer) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	var errs []string
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			errs = append(errs, err.Error())
		},
	}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil && len(errs) == 0 {
		errs = append(errs, err.Error())
	}
	if len(errs) > 0 {
		const max = 10
		if len(errs) > max {
			errs = append(errs[:max], fmt.Sprintf("... and %d more errors", len(errs)-max))
		}
		return nil, fmt.Errorf("type-checking %s:\n\t%s", importPath, strings.Join(errs, "\n\t"))
	}
	return &Package{Path: importPath, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

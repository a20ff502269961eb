package analysis

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

// Package is one loaded, parsed and type-checked package.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info
	// Errors holds load, parse or type errors; analysis is skipped for
	// packages that have any.
	Errors []error

	// ignore maps file name -> line -> rules suppressed on that line by
	// a //ppmvet:ignore comment ("" suppresses every rule).
	ignore map[string]map[int][]string

	// index is the lazily built interprocedural index shared by every
	// analyzer running over this package (see callgraph.go).
	index *PkgIndex
}

// listEntry is the subset of `go list -json` output the loader consumes.
type listEntry struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Imports    []string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// goList runs `go list -e -json=<fields>` with args in dir and decodes
// its entries.
func goList(dir, fields string, args ...string) ([]listEntry, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", "-json=" + fields}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var entries []listEntry
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var e listEntry
		if err := dec.Decode(&e); err == io.EOF {
			return entries, nil
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		entries = append(entries, e)
	}
}

// Load resolves patterns (as the go tool would, e.g. "./...") relative
// to dir, and returns the matched packages parsed and type-checked.
// Dependencies are consumed as compiler export data produced by
// `go list -export`, so loading works without network access and without
// re-type-checking the world; only the matched packages get syntax, and
// a matched package no other one imports is not compiled at all.
func Load(dir string, patterns ...string) ([]*Package, error) {
	entries, err := goList(dir, "ImportPath,Dir,GoFiles,Imports,DepOnly,Standard,Error", append([]string{"-deps"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	var roots []listEntry
	deps := []string{"-deps", "-export"}
	for _, e := range entries {
		if !e.DepOnly && !e.Standard {
			roots = append(roots, e)
			deps = append(deps, e.Imports...)
		}
	}
	built, err := goList(dir, "ImportPath,Export", deps...)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	for _, e := range built {
		exports[e.ImportPath] = e.Export
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		p, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(p)
	})

	var pkgs []*Package
	for _, e := range roots {
		pkg := &Package{
			ImportPath: e.ImportPath,
			Dir:        e.Dir,
			Fset:       fset,
			ignore:     map[string]map[int][]string{},
		}
		if e.Error != nil {
			pkg.Errors = append(pkg.Errors, fmt.Errorf("%s", e.Error.Err))
		}
		for _, name := range e.GoFiles {
			path := filepath.Join(e.Dir, name)
			src, err := os.ReadFile(path)
			if err != nil {
				pkg.Errors = append(pkg.Errors, err)
				continue
			}
			f, err := parser.ParseFile(fset, path, src, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				pkg.Errors = append(pkg.Errors, err)
				continue
			}
			pkg.Files = append(pkg.Files, f)
			pkg.recordIgnores(f, src)
		}
		if len(pkg.Errors) == 0 {
			pkg.TypesInfo = &types.Info{
				Types:      map[ast.Expr]types.TypeAndValue{},
				Defs:       map[*ast.Ident]types.Object{},
				Uses:       map[*ast.Ident]types.Object{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
			}
			conf := types.Config{Importer: imp}
			tpkg, err := conf.Check(e.ImportPath, fset, pkg.Files, pkg.TypesInfo)
			pkg.Types = tpkg
			if err != nil {
				pkg.Errors = append(pkg.Errors, err)
			}
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// recordIgnores scans f for //ppmvet:ignore comments. An annotation
// suppresses the named rules (all rules when none are named) on its own
// line and — only when the comment stands alone on its line — on the
// following line; an end-of-line annotation applies to its own line
// only, so it cannot silently swallow a finding on the statement below.
func (p *Package) recordIgnores(f *ast.File, src []byte) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rules, ok := parseIgnore(c.Text)
			if !ok {
				continue
			}
			pos := p.Fset.Position(c.Pos())
			lines := p.ignore[pos.Filename]
			if lines == nil {
				lines = map[int][]string{}
				p.ignore[pos.Filename] = lines
			}
			lines[pos.Line] = append(lines[pos.Line], rules...)
			if standaloneComment(src, pos.Offset) {
				lines[pos.Line+1] = append(lines[pos.Line+1], rules...)
			}
		}
	}
}

// parseIgnore extracts the rule list from one //ppmvet:ignore comment.
// An annotation without rule names (rules == [""]), suppresses all.
// Everything after a "—" or "--" is commentary.
func parseIgnore(comment string) (rules []string, ok bool) {
	text := strings.TrimSpace(strings.TrimPrefix(comment, "//"))
	if !strings.HasPrefix(text, "ppmvet:ignore") {
		return nil, false
	}
	text = strings.TrimPrefix(text, "ppmvet:ignore")
	if i := strings.IndexAny(text, "—"); i >= 0 {
		text = text[:i]
	}
	if i := strings.Index(text, "--"); i >= 0 {
		text = text[:i]
	}
	rules = strings.Fields(text)
	if len(rules) == 0 {
		rules = []string{""}
	}
	return rules, true
}

// standaloneComment reports whether only whitespace precedes the
// comment starting at offset on its source line.
func standaloneComment(src []byte, offset int) bool {
	if offset > len(src) {
		return false
	}
	for i := offset - 1; i >= 0; i-- {
		switch src[i] {
		case '\n':
			return true
		case ' ', '\t', '\r':
			// keep scanning
		default:
			return false
		}
	}
	return true // first line of the file
}

// ruleMatches reports whether suppression entry r covers rule: the
// empty entry covers everything, an exact name covers itself, and a
// name covers its dotted sub-rules (ignoring "phaserace" also ignores
// "phaserace.possible"; the reverse does not hold).
func ruleMatches(r, rule string) bool {
	return r == "" || r == rule || strings.HasPrefix(rule, r+".")
}

// suppressed reports whether rule is ignored at pos.
func (p *Package) suppressed(rule string, pos token.Position) bool {
	for _, r := range p.ignore[pos.Filename][pos.Line] {
		if ruleMatches(r, rule) {
			return true
		}
	}
	return false
}

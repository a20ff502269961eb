//go:build ignore

// docs_check fails when a document names, in backticks, an identifier of
// this module that no longer exists:
//
//   - `pkg.Ident`, where pkg is the name of one of the module's packages
//     and no non-test file of a package of that name declares Ident at
//     top level;
//   - `Type.Member` (or `pkg.Type.Member`), where Type is a type the
//     module declares and no type of that name has the method or field
//     Member, itself or through an embedded type.
//
// Tests count as declared: a test file's Test, Fuzz and Benchmark
// functions are the one thing read from it, under its package's name
// (an external test package's too). Anything else in backticks is not
// checked: a variable, a standard-library name, a file name, an
// all-lowercase name (a metric such as `dist.flushes`, an array such as
// `cg.p`), a chain of fields below a type (a JSON path), a command line.
// Fenced code blocks, and paragraphs that begin "Tried and removed",
// which name what is gone on purpose, are skipped. A trailing call, `Do(...)`, and a leading `*` or `&` are
// dropped before the check.
//
//	go run scripts/docs_check.go [doc.md...]
//
// Run from the module root. With no documents it checks README.md,
// LANGUAGE.md and DESIGN.md. Each dead name prints as file:line: message, and the exit
// status is 1 when there is one. `make docs-check` runs it.
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// decls is what the module's non-test Go files declare.
type decls struct {
	pkgs  map[string]map[string]bool // package name -> top-level identifiers
	types map[string]*typeInfo       // type name (any package) -> members
}

type typeInfo struct {
	members map[string]bool
	embeds  []string // embedded (or aliased) type names, searched for members too
}

func (d *decls) typ(name string) *typeInfo {
	t := d.types[name]
	if t == nil {
		t = &typeInfo{members: map[string]bool{}}
		d.types[name] = t
	}
	return t
}

// hasMember reports whether a type named name has member m, itself or
// through what it embeds.
func (d *decls) hasMember(name, m string, seen map[string]bool) bool {
	t := d.types[name]
	if t == nil || seen[name] {
		return false
	}
	seen[name] = true
	if t.members[m] {
		return true
	}
	for _, e := range t.embeds {
		if d.hasMember(e, m, seen) {
			return true
		}
	}
	return false
}

// typeName is the name of the named type at the root of e (T, *T, T[X],
// pkg.T), or "".
func typeName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.StarExpr:
		return typeName(x.X)
	case *ast.IndexExpr:
		return typeName(x.X)
	case *ast.IndexListExpr:
		return typeName(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
}

func load(root string) (*decls, error) {
	d := &decls{pkgs: map[string]map[string]bool{}, types: map[string]*typeInfo{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := e.Name()
		if e.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		test := strings.HasSuffix(name, "_test.go")
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		top := d.pkgs[pkg]
		if top == nil {
			top = map[string]bool{}
			d.pkgs[pkg] = top
		}
		for _, decl := range f.Decls {
			if test {
				if x, ok := decl.(*ast.FuncDecl); ok && x.Recv == nil && testFunc.MatchString(x.Name.Name) {
					top[x.Name.Name] = true
				}
				continue
			}
			switch x := decl.(type) {
			case *ast.FuncDecl:
				if x.Recv == nil {
					top[x.Name.Name] = true
				} else if len(x.Recv.List) == 1 {
					d.typ(typeName(x.Recv.List[0].Type)).members[x.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range x.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range s.Names {
							top[n.Name] = true
						}
					case *ast.TypeSpec:
						top[s.Name.Name] = true
						t := d.typ(s.Name.Name)
						switch u := s.Type.(type) {
						case *ast.StructType:
							fields(t, u.Fields)
						case *ast.InterfaceType:
							fields(t, u.Methods)
						default:
							if n := typeName(u); n != "" {
								t.embeds = append(t.embeds, n)
							}
						}
					}
				}
			}
		}
		return nil
	})
	return d, err
}

// fields records a struct's fields or an interface's methods as members
// of t, and embedded ones as embeds.
func fields(t *typeInfo, list *ast.FieldList) {
	for _, f := range list.List {
		if len(f.Names) == 0 {
			if n := typeName(f.Type); n != "" {
				t.members[n] = true
				t.embeds = append(t.embeds, n)
			}
			continue
		}
		for _, n := range f.Names {
			t.members[n.Name] = true
		}
	}
}

var (
	spanRE   = regexp.MustCompile("`([^`\n]+)`")
	nameRE   = regexp.MustCompile(`^[A-Za-z][A-Za-z0-9]*(\.[A-Za-z][A-Za-z0-9]*)+$`)
	fileRE   = regexp.MustCompile(`\.(go|md|json|ppm|golden|txt|yml|mod|sum)$`)
	testFunc = regexp.MustCompile(`^(Test|Fuzz|Benchmark)`)
)

// dead returns why span names nothing the module declares, or "".
func (d *decls) dead(span string) string {
	span = strings.TrimLeft(span, "*&")
	if i := strings.IndexByte(span, '('); i >= 0 {
		span = span[:i]
	}
	if !nameRE.MatchString(span) || fileRE.MatchString(span) || span == strings.ToLower(span) {
		return ""
	}
	parts := strings.Split(span, ".")
	x, y := parts[0], parts[1]
	if top, ok := d.pkgs[x]; ok {
		if !top[y] {
			return fmt.Sprintf("package %s declares no %s", x, y)
		}
		if len(parts) < 3 {
			return ""
		}
		parts = parts[1:]
		x, y = parts[0], parts[1]
	}
	if _, ok := d.types[x]; ok && len(parts) == 2 && !d.hasMember(x, y, map[string]bool{}) {
		return fmt.Sprintf("type %s has no method or field %s", x, y)
	}
	return ""
}

// check prints every dead name of the document at path and returns how
// many there were.
func (d *decls) check(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n, line := 0, 0
	fenced, skip, para := false, false, false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line++
		text := sc.Text()
		trimmed := strings.TrimSpace(text)
		if strings.HasPrefix(trimmed, "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		if trimmed == "" {
			para, skip = false, false
			continue
		}
		if !para {
			para = true
			skip = strings.HasPrefix(strings.TrimLeft(trimmed, "-*# "), "Tried and removed")
		}
		if skip {
			continue
		}
		for _, m := range spanRE.FindAllStringSubmatch(text, -1) {
			if why := d.dead(m[1]); why != "" {
				fmt.Printf("%s:%d: `%s`: %s\n", path, line, m[1], why)
				n++
			}
		}
	}
	return n, sc.Err()
}

func main() {
	docs := os.Args[1:]
	if len(docs) == 0 {
		docs = []string{"README.md", "LANGUAGE.md", "DESIGN.md"}
	}
	d, err := load(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "docs_check:", err)
		os.Exit(2)
	}
	total := 0
	for _, doc := range docs {
		n, err := d.check(doc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "docs_check:", err)
			os.Exit(2)
		}
		total += n
	}
	if total > 0 {
		fmt.Printf("%d dead names\n", total)
		os.Exit(1)
	}
}

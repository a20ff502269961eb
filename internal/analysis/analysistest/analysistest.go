// Package analysistest runs ppmvet analyzers over fixture packages and
// checks their findings against // want comments, in the style of
// golang.org/x/tools/go/analysis/analysistest (self-contained here
// because the x/tools module is not vendored).
//
// A fixture line carrying
//
//	a.Write(vp, 3, v) // want `overlapping elements of a`
//
// asserts that the analyzer reports a diagnostic on that line whose
// message matches the back-quoted regular expression. Every expectation
// must be matched by exactly one diagnostic and every diagnostic must
// match an expectation, or the test fails.
package analysistest

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"ppm/internal/analysis"
)

// wantRe matches one // want `re` expectation (several may share a line).
var wantRe = regexp.MustCompile("// want `([^`]*)`")

// expectation is one // want assertion.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// Run loads the package at dir (relative to the current test's working
// directory), applies exactly the given analyzers, and compares the
// diagnostics with the fixture's // want comments.
func Run(t *testing.T, dir string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.Load(wd, "./"+filepath.ToSlash(dir))
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	diags, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		t.Fatalf("analyzing %s: %v", dir, err)
	}

	var wants []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			name := pkg.Fset.Position(f.Pos()).Filename
			src, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(src), "\n") {
				for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", name, i+1, m[1], err)
					}
					wants = append(wants, &expectation{file: name, line: i + 1, re: re})
				}
			}
		}
	}

	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.hit || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}

// RunAll is Run with the complete ppmvet rule suite — for fixtures that
// must stay findings-free under every rule.
func RunAll(t *testing.T, dir string) {
	t.Helper()
	Run(t, dir, analysis.Rules()...)
}

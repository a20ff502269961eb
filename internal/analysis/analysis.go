// Package analysis is a small static-analysis framework for PPM
// programs written in Go, modeled on the golang.org/x/tools/go/analysis
// vet architecture but self-contained (the toolchain's module proxy is
// not assumed to be reachable). It provides the Analyzer/Pass/Diagnostic
// core, a package loader built on `go list -export` plus the standard
// go/types importer, and the ppmvet rule suite: ignored run errors
// (runerror) and overlapping VP write sets (phaserace, an affine
// analysis of index expressions over a CFG/dataflow/call-expansion
// layer).
//
// What a run always decides itself is not a rule: a shared access
// outside a phase panics in VP.accessCheck, Local/At panic while a Do is
// active, and WriteBlock/AddBlock copy their source before returning;
// under StrictWrites the runtime reports a read of an element the VP
// updated earlier in the phase and a write through a retained Local
// slice. Nor is what a `go test -race` run decides: host state that VP
// code mutates without Serial is a data race the race detector reports
// (TestGoMutantTable scores both). ppmvet keeps what no run decides: a
// discarded run error, and write sets that overlap on some input or
// node count a run may never meet, reported before a program runs, with
// source positions — the "compiler knows the model" advantage the paper
// claims for a language front end, recovered for the Go API.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static-analysis rule.
type Analyzer struct {
	// Name identifies the rule (a lowercase identifier, used in
	// diagnostics and //ppmvet:ignore comments).
	Name string
	// Doc is a one-paragraph description of what the rule reports.
	Doc string
	// Run applies the rule to one package.
	Run func(*Pass) error
}

// A Pass provides one analyzer run with a loaded, type-checked package
// and the diagnostic sink.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	pkg  *Package
	sink *[]Diagnostic
}

// Reportf records a diagnostic at pos unless the source line carries a
// //ppmvet:ignore annotation naming this rule.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.reportTagged(pos, p.Analyzer.Name, format, args...)
}

// reportTagged records a diagnostic under an explicit rule tag, letting
// one analyzer emit findings of graded certainty ("phaserace" for
// proven overlaps, "phaserace.possible" for undecidable index sets)
// that are suppressible separately. Suppression matches by prefix:
// ignoring the analyzer name also ignores its dotted sub-rules.
func (p *Pass) reportTagged(pos token.Pos, rule string, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.pkg.suppressed(rule, position) {
		return
	}
	*p.sink = append(*p.sink, Diagnostic{
		Rule:     rule,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer,
	})
}

// A Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	Rule     string
	Pos      token.Position
	Message  string
	Analyzer *Analyzer
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Rule, d.Message)
}

// Run applies every analyzer to every package and returns the combined
// findings sorted by position. Packages that failed to load contribute
// their load errors via the returned error (analysis of the remaining
// packages still happens).
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	var loadErrs []string
	for _, pkg := range pkgs {
		if len(pkg.Errors) > 0 {
			for _, e := range pkg.Errors {
				loadErrs = append(loadErrs, fmt.Sprintf("%s: %v", pkg.ImportPath, e))
			}
			continue
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				pkg:       pkg,
				sink:      &diags,
			}
			if err := a.Run(pass); err != nil {
				return diags, fmt.Errorf("%s: analyzer %s: %v", pkg.ImportPath, a.Name, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Rule < diags[j].Rule
	})
	if len(loadErrs) > 0 {
		return diags, fmt.Errorf("load errors:\n  %s", strings.Join(loadErrs, "\n  "))
	}
	return diags, nil
}

// Rules returns the ppmvet analyzer suite in a stable order.
func Rules() []*Analyzer {
	return []*Analyzer{
		RunErrorAnalyzer,
		PhaseRaceAnalyzer,
	}
}

// RuleByName returns the named analyzer, or nil.
func RuleByName(name string) *Analyzer {
	for _, a := range Rules() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Command ppmvet statically checks Go programs that use the ppm API for
// what no run decides: overlapping VP write sets (which StrictWrites
// aborts on only when a run reaches them) and discarded run errors.
// What a run does decide has no rule: host state mutated from VP code
// without Serial is a data race that `go test -race` reports, and a
// stale same-phase read or a write through a retained Local slice is
// what a StrictWrites run reports.
//
// Usage:
//
//	ppmvet [-json] [-rules list] packages...
//
//	ppmvet ./...                    # check every package
//	ppmvet -json ./internal/apps/...
//	ppmvet -rules phaserace ./examples/...
//	ppmvet -list                    # describe the rules
//
// Findings print as file:line:col: rule: message and make the exit
// status nonzero. A finding can be suppressed with a //ppmvet:ignore
// [rule...] comment on (or immediately above) the offending line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"ppm/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	ruleList := flag.String("rules", "", "comma-separated subset of rules to run (default: all)")
	listRules := flag.Bool("list", false, "list the available rules and exit")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: ppmvet [-json] [-rules list] packages...")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listRules {
		for _, a := range analysis.Rules() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	rules := analysis.Rules()
	if *ruleList != "" {
		rules = rules[:0]
		for _, name := range strings.Split(*ruleList, ",") {
			a := analysis.RuleByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "ppmvet: unknown rule %q (try -list)\n", name)
				os.Exit(2)
			}
			if !slices.Contains(rules, a) {
				rules = append(rules, a)
			}
		}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppmvet:", err)
		os.Exit(2)
	}
	pkgs, err := analysis.Load(wd, flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppmvet:", err)
		os.Exit(2)
	}
	diags, err := analysis.Run(pkgs, rules)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppmvet:", err)
		os.Exit(2)
	}

	if *jsonOut {
		out := make([]finding, 0, len(diags))
		for _, d := range diags {
			out = append(out, finding{d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "ppmvet:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Printf("%d problem%s\n", len(diags), plural(len(diags)))
		}
		os.Exit(1)
	}
	if !*jsonOut {
		fmt.Printf("ok\t%d packages checked\n", len(pkgs))
	}
}

func plural(n int) string {
	if n == 1 {
		return ""
	}
	return "s"
}

// finding is the JSON shape of one diagnostic in -json output.
type finding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

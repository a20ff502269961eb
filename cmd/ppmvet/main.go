// Command ppmvet statically checks Go programs that use the ppm API for
// phase-semantics misuse: the rules the runtime enforces dynamically
// (access outside phases, overlapping VP write sets that StrictWrites
// aborts on), plus hazards it cannot see at all (stale same-phase reads,
// node-level aliases leaking into VP code, discarded run errors, host
// state mutated from VP code, block-transfer slices escaping their
// phase).
//
// Usage:
//
//	ppmvet [-json] [-rules list] [-timing] [-baseline file] packages...
//
//	ppmvet ./...                    # check every package
//	ppmvet -json ./internal/apps/...
//	ppmvet -rules phasebound,staleread ./examples/...
//	ppmvet -timing ./...            # report per-rule wall-clock cost
//	ppmvet -baseline VET_BASELINE.json ./...  # only NEW findings fail
//
// A baseline is a JSON findings file (the -json output of an earlier
// run, checked into the repository): findings recorded there are
// suppressed, so the run fails only on findings the baseline does not
// know. Baseline entries match on file, rule, and message — not line —
// so unrelated edits to a file do not churn the gate.
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
	"strings"
	"time"

	"ppm/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	ruleList := flag.String("rules", "", "comma-separated subset of rules to run (default: all)")
	listRules := flag.Bool("list", false, "list the available rules and exit")
	timing := flag.Bool("timing", false, "report per-rule wall-clock cost on stderr")
	baseline := flag.String("baseline", "", "JSON findings file; findings recorded there do not fail the run")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: ppmvet [-json] [-rules list] [-timing] packages...")
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
			rules = append(rules, a)
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
	diags, timings, err := analysis.RunTimed(pkgs, rules)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppmvet:", err)
		os.Exit(2)
	}
	if *timing {
		for _, t := range timings {
			fmt.Fprintf(os.Stderr, "ppmvet: %-14s %v\n", t.Rule, t.Elapsed.Round(time.Microsecond))
		}
	}
	if *baseline != "" {
		known, err := loadBaseline(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ppmvet:", err)
			os.Exit(2)
		}
		kept := diags[:0]
		suppressed := 0
		for _, d := range diags {
			if known[baselineKey(d.Pos.Filename, d.Rule, d.Message)] {
				suppressed++
				continue
			}
			kept = append(kept, d)
		}
		diags = kept
		if suppressed > 0 && !*jsonOut {
			fmt.Printf("%d known finding%s suppressed by %s\n", suppressed, plural(suppressed), *baseline)
		}
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

// finding is the JSON shape of one diagnostic, shared by -json output
// and -baseline files.
type finding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

func baselineKey(file, rule, message string) string {
	return file + "\x00" + rule + "\x00" + message
}

// loadBaseline reads a -json findings file into a suppression set.
func loadBaseline(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var fs []finding
	if err := json.Unmarshal(data, &fs); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	known := make(map[string]bool, len(fs))
	for _, f := range fs {
		known[baselineKey(f.File, f.Rule, f.Message)] = true
	}
	return known, nil
}

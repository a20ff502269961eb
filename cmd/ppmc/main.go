// Command ppmc is the PPM language front end — the paper's §3.4
// "combination of a source-to-source compiler and a light-weight runtime
// library", reproduced: it either interprets a PPM-language program
// directly on the simulated cluster, or emits the translated Go source
// that targets this repository's public API.
//
// Usage:
//
//	ppmc run  [-nodes 4] [-cores 4] prog.ppm   # execute on the simulator
//	ppmc emit prog.ppm                         # print translated Go
//	ppmc check [-json] prog.ppm...             # full semantic + phase lint
//
// run interprets under StrictWrites: writes that conflict in one phase
// fail the run, and each read of an element the reading VP updated
// earlier in the same phase (it sees the begin-of-phase value) prints as
// a warning on stderr.
//
// check reports every diagnostic with file:line:col positions — semantic
// errors plus phase-semantics warnings (overlapping VP write sets, which
// strict mode rejects, and index sets it cannot prove disjoint
// [phaserace, phaserace.possible], unused shared arrays) — and exits
// nonzero when there are findings. -json emits them as a JSON array for
// tooling.
//
// The language is documented in internal/lang; examples/language contains
// runnable programs (including the paper's Section 5 listing).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"ppm/internal/core"
	"ppm/internal/lang"
	"ppm/internal/machine"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ppmc: ")
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	nodes := fs.Int("nodes", 4, "cluster nodes (run)")
	cores := fs.Int("cores", 4, "cores per node (run)")
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array (check)")
	if err := fs.Parse(os.Args[2:]); err != nil {
		log.Fatal(err)
	}
	if cmd == "check" {
		if fs.NArg() < 1 {
			usage()
		}
		os.Exit(check(fs.Args(), *jsonOut))
	}
	if fs.NArg() != 1 {
		usage()
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	prog, err := lang.Parse(string(src))
	if err != nil {
		log.Fatalf("%s:%v", fs.Arg(0), err)
	}

	switch cmd {
	case "emit":
		out, err := lang.GenerateGo(prog)
		if err != nil {
			log.Fatalf("%s:%v", fs.Arg(0), err)
		}
		fmt.Print(out)
	case "run":
		opt := core.Options{Nodes: *nodes, CoresPerNode: *cores, Machine: machine.Franklin(), StrictWrites: true}
		rep, err := lang.Interpret(prog, opt, os.Stdout)
		if rep != nil {
			for _, h := range rep.Hazards {
				log.Printf("%s: warning: %v", fs.Arg(0), h)
			}
		}
		if err != nil {
			log.Fatalf("%s:%v", fs.Arg(0), err)
		}
		fmt.Printf("simulated time: %v on %d nodes (%d global phases, %d VPs)\n",
			rep.Makespan(), *nodes, rep.Totals.GlobalPhases, rep.Totals.VPsStarted)
	default:
		usage()
	}
}

// fileDiag is one diagnostic tagged with the file it came from.
type fileDiag struct {
	File string `json:"file"`
	lang.Diag
}

// check analyzes every file and prints all diagnostics. Exit status: 0
// when clean, 1 on findings, 2 on usage errors (flag package exits 2).
func check(files []string, jsonOut bool) int {
	var all []fileDiag
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			all = append(all, fileDiag{name, lang.Diag{
				Rule: "load", Sev: lang.SevError, Msg: err.Error(),
			}})
			continue
		}
		prog, perr := lang.Parse(string(src))
		if perr != nil {
			d := lang.Diag{Rule: "parse", Sev: lang.SevError, Msg: perr.Error()}
			if e, ok := perr.(*lang.Error); ok {
				d.Line, d.Col, d.Msg = e.Line, e.Col, e.Msg
			}
			all = append(all, fileDiag{name, d})
			continue
		}
		for _, d := range lang.Analyze(prog) {
			all = append(all, fileDiag{name, d})
		}
	}

	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		if all == nil {
			all = []fileDiag{}
		}
		if err := enc.Encode(all); err != nil {
			log.Fatal(err)
		}
	} else {
		for _, d := range all {
			fmt.Printf("%s:%s\n", d.File, d.Diag)
		}
	}

	if len(all) > 0 {
		nerr := 0
		for _, d := range all {
			if d.Sev == lang.SevError {
				nerr++
			}
		}
		if !jsonOut {
			fmt.Printf("%d problems (%d errors, %d warnings)\n", len(all), nerr, len(all)-nerr)
		}
		return 1
	}
	if !jsonOut {
		fmt.Printf("ok\t%d files checked\n", len(files))
	}
	return 0
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: ppmc run  [-nodes N] [-cores C] prog.ppm
       ppmc emit prog.ppm
       ppmc check [-json] prog.ppm...`)
	os.Exit(2)
}

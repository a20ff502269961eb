//go:build ignore

// bench_pairs measures a change against a base revision the way the
// choosing-metrics guide asks: N alternated pairs of runs of the repo's
// one benchmark, identical benchmark code on both sides.
//
//	go run scripts/bench_pairs.go -base <rev> [-n 10] [-claim metric] -- [benchmark flags...]
//	go run scripts/bench_pairs.go -selfcheck
//
// It unpacks <rev> (git archive) under .bench_build/, refuses to compare
// if benchmark/ or BENCHMARK.json differ between the two trees, builds
// benchmark/ against each tree once, runs the pairs (switching which side
// goes first every pair) and prints, per workload and metric, each side's
// median and quartiles, the pairs won and lost and the exact one-sided
// sign-test p of the side that won fewer. The unpacked tree is removed
// again on exit. `make bench-pairs` wraps it.
//
// The pair gate: it exits non-zero when an end-to-end metric of
// BENCHMARK.json loses at p < 0.05 (the change won 0 of 6 pairs, or at
// most 1 of 10) and its median is worse than the base's by more than the
// base's quartile spread, unless -claim names that metric. -selfcheck
// checks the p values the gate rests on and exits.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type description struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// side is one of the two trees under comparison.
type side struct {
	label string
	tree  string // checkout root
	bin   string // its benchmark binary
	// runs[i][workload][metric] is what pair i's run reported.
	runs   []map[string]map[string]float64
	failed int // runs that exited non-zero
}

func main() {
	base := flag.String("base", "", "revision to compare the working tree against (required)")
	n := flag.Int("n", 10, "pairs of runs")
	claim := flag.String("claim", "", "an end-to-end metric the change claims, which the pair gate leaves out")
	selfcheck := flag.Bool("selfcheck", false, "check the sign-test p values and exit")
	flag.Parse()
	if *selfcheck {
		if err := checkSignP(); err != nil {
			fmt.Fprintln(os.Stderr, "bench-pairs:", err)
			os.Exit(1)
		}
		return
	}
	if *base == "" || *n < 1 {
		fmt.Fprintln(os.Stderr, "usage: go run scripts/bench_pairs.go -base <rev> [-n pairs] [-claim metric] -- [benchmark flags...]")
		os.Exit(2)
	}
	if err := run(*base, *n, *claim, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench-pairs:", err)
		os.Exit(1)
	}
}

// gateP is the sign-test p below which a lost end-to-end metric fails
// the pair gate.
const gateP = 0.05

// signP is the exact one-sided sign-test p of a side that won won of n
// pairs that were not ties: the chance that a fair coin comes up heads at
// most won times in n throws.
func signP(won, n int) float64 {
	p, c := 0.0, 1.0 // c is n choose i
	for i := 0; i <= won; i++ {
		p += c
		c = c * float64(n-i) / float64(i+1)
	}
	return p / math.Exp2(float64(n))
}

// checkSignP checks signP on the cases the gate is stated in.
func checkSignP() error {
	var b strings.Builder
	for _, c := range []struct {
		won, n int
		p      float64 // exact
		shown  string  // as the report prints it
		fails  bool    // p < gateP
	}{
		{0, 6, 1.0 / 64, "0.0156", true},
		{1, 10, 11.0 / 1024, "0.0107", true},
		{2, 10, 56.0 / 1024, "0.0547", false},
		{0, 5, 1.0 / 32, "0.0312", true},
		{5, 10, 638.0 / 1024, "0.6230", false},
		{10, 10, 1, "1.0000", false},
	} {
		got := signP(c.won, c.n)
		if math.Abs(got-c.p) > 1e-12 || fmt.Sprintf("%.4f", got) != c.shown || (got < gateP) != c.fails {
			return fmt.Errorf("sign test: %d of %d has p = %v (%.4f), want %v (%s)", c.won, c.n, got, got, c.p, c.shown)
		}
		fmt.Fprintf(&b, " %d/%d -> %s", c.won, c.n, c.shown)
	}
	fmt.Println("sign test:" + b.String())
	return nil
}

func run(base string, n int, claim string, args []string) error {
	rootOut, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	if err != nil {
		return fmt.Errorf("not in a git checkout: %w", err)
	}
	root := strings.TrimSpace(string(rootOut))

	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var desc description
	if err := json.Unmarshal(raw, &desc); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	workloads := make(map[string]bool)
	for _, w := range desc.Workloads {
		workloads[w.Name] = true
	}
	defs := append(append([]metricDef(nil), desc.EndToEnd...), desc.PerLayer...)
	known := make(map[string]bool)
	for _, d := range defs {
		known[d.Name] = true
	}

	// Same measuring instrument on both sides, or the pairs mean nothing.
	if out, err := git(root, "diff", "--stat", base, "--", "benchmark", "BENCHMARK.json"); err != nil {
		return err
	} else if out != "" {
		return fmt.Errorf("benchmark/ or BENCHMARK.json differ from %s; compare only identical benchmark code:\n%s", base, out)
	}

	baseTree := filepath.Join(root, ".bench_build", "pairs-base")
	if err := unpack(root, base, baseTree); err != nil {
		return err
	}
	defer os.RemoveAll(baseTree)

	sides := [2]*side{
		{label: "base", tree: baseTree},
		{label: "change", tree: root},
	}
	for _, s := range sides {
		s.bin = filepath.Join(s.tree, ".bench_build", "bench-pairs.bin")
		cmd := exec.Command("go", "build", "-o", s.bin, ".")
		cmd.Dir = filepath.Join(s.tree, "benchmark")
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("building benchmark/ against %s: %v\n%s", s.tree, err, out)
		}
	}

	for i := 0; i < n; i++ {
		order := sides
		if i%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		for _, s := range order {
			fmt.Fprintf(os.Stderr, "pair %d/%d: %s\n", i+1, n, s.label)
			s.measure(args, workloads, known)
		}
	}

	if claim != "" && !known[claim] {
		return fmt.Errorf("-claim %s: BENCHMARK.json declares no such metric", claim)
	}
	lost := report(os.Stdout, base, n, sides, desc, defs, claim)
	if sides[0].failed+sides[1].failed > 0 {
		return fmt.Errorf("%d base and %d change runs exited non-zero (failed ops or a mismatch)", sides[0].failed, sides[1].failed)
	}
	if len(lost) > 0 {
		return fmt.Errorf("the change loses at p < %g, by more than the base's quartile spread: %s", gateP, strings.Join(lost, ", "))
	}
	return nil
}

func git(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return strings.TrimSpace(string(out)), nil
}

// unpack extracts revision rev of the checkout at root into dir, replacing
// whatever an interrupted run left there.
func unpack(root, rev, dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	archive := exec.Command("git", "archive", "--format=tar", rev)
	archive.Dir = root
	untar := exec.Command("tar", "-x", "-C", dir)
	var stderr bytes.Buffer
	archive.Stderr, untar.Stderr = &stderr, &stderr
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return err
	}
	untar.Stdin = pipe
	if err := untar.Start(); err != nil {
		return err
	}
	aerr := archive.Run()
	uerr := untar.Wait()
	if aerr != nil || uerr != nil {
		return fmt.Errorf("git archive %s | tar -x: %v, %v: %s", rev, aerr, uerr, strings.TrimSpace(stderr.String()))
	}
	return nil
}

// measure runs the side's benchmark once and files every
// `workload metric value unit` line it prints as the next pair's run.
func (s *side) measure(args []string, workloads, known map[string]bool) {
	cmd := exec.Command(s.bin, args...)
	cmd.Dir = filepath.Join(s.tree, "benchmark")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		s.failed++
		fmt.Fprintf(os.Stderr, "  %s run exited: %v\n", s.label, err)
	}
	run := make(map[string]map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 3 || !workloads[f[0]] || !known[f[1]] {
			continue
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			continue // n/a
		}
		if run[f[0]] == nil {
			run[f[0]] = make(map[string]float64)
		}
		run[f[0]][f[1]] = v
	}
	s.runs = append(s.runs, run)
}

func quartiles(vals []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		x := p * float64(len(s)-1)
		lo := int(x)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (x-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

// report prints the comparison and returns the end-to-end metrics, as
// "workload metric", that fail the pair gate.
func report(w *os.File, base string, n int, sides [2]*side, desc description, defs []metricDef, claim string) (lost []string) {
	fmt.Fprintf(w, "\n%d alternated pairs, base = %s; median [q1, q3]; won = pairs the change won / the base won (ties count for neither), p = one-sided sign test of the side that won fewer\n", n, base)
	for _, wl := range desc.Workloads {
		header := false
		for _, d := range defs {
			// A pair counts for a metric when both of its runs reported it.
			var bv, cv []float64
			won, lostPairs := 0, 0
			for i := 0; i < n; i++ {
				x, okx := sides[0].runs[i][wl.Name][d.Name]
				y, oky := sides[1].runs[i][wl.Name][d.Name]
				if !okx || !oky {
					continue
				}
				bv, cv = append(bv, x), append(cv, y)
				switch lower := d.Better == "lower"; {
				case y == x:
				case (y < x) == lower:
					won++
				default:
					lostPairs++
				}
			}
			if len(bv) == 0 {
				continue
			}
			bq1, bm, bq3 := quartiles(bv)
			cq1, cm, cq3 := quartiles(cv)
			if bm == 0 && cm == 0 && bq3 == 0 && cq3 == 0 {
				continue // a layer this workload never enters
			}
			if !header {
				header = true
				fmt.Fprintf(w, "\n%s\n  %-34s %-30s %-30s %8s  %s\n", wl.Name, "metric", "base", "change", "delta", "won")
			}
			delta := "      "
			if bm != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(cm-bm)/bm)
			}
			flag := ""
			worse := cm - bm
			if d.Better != "lower" {
				worse = -worse
			}
			if d.Bound > 0 && bm != 0 && worse/math.Abs(bm) > d.Bound {
				flag = fmt.Sprintf("  WORSE beyond bound %g", d.Bound)
			}
			p := signP(min(won, lostPairs), won+lostPairs)
			if d.Bound > 0 && won < lostPairs && p < gateP && worse > bq3-bq1 {
				if d.Name == claim {
					flag += "  LOSES (claimed, not gated)"
				} else {
					flag += "  LOSES: fails the pair gate"
					lost = append(lost, wl.Name+" "+d.Name)
				}
			}
			fmt.Fprintf(w, "  %-34s %-30s %-30s %8s  %d/%d of %d p=%.4f%s\n", d.Name+" ("+d.Unit+")",
				fmt.Sprintf("%.6g [%.6g, %.6g]", bm, bq1, bq3),
				fmt.Sprintf("%.6g [%.6g, %.6g]", cm, cq1, cq3),
				delta, won, lostPairs, len(bv), p, flag)
			if d.Bound > 0 {
				// End-to-end metrics: every run, in pair order, for the record.
				fmt.Fprintf(w, "    base   %s\n    change %s\n", joinVals(bv), joinVals(cv))
			}
		}
	}
	return lost
}

func joinVals(vals []float64) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = strconv.FormatFloat(v, 'g', 6, 64)
	}
	return strings.Join(parts, " ")
}

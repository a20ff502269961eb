package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// BENCHMARK.json at the root is generated from the tables in metrics.go
// (go run -C benchmark . -describe > BENCHMARK.json); the two must not
// drift.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := describe(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, want.Bytes()) {
		t.Error("BENCHMARK.json differs from -describe; regenerate it")
	}
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.name] {
			t.Errorf("metric %s is defined twice", d.name)
		}
		seen[d.name] = true
		if len(d.name) > 64 {
			t.Errorf("metric name %s is longer than 64", d.name)
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
}

// Every workload, untraced and traced, in -short mode: two measured
// rounds, every job bit-identical to its simulator reference, every
// metric of the table reported, the server stopped cleanly.
func TestWorkloadsShort(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and forks the product binaries")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadWhy {
		for _, trace := range []bool{false, true} {
			name := w.name
			if trace {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				rep := runWorkload(root, config{
					workload: w.name, seed: 5, short: true, trace: trace,
					out: filepath.Join(t.TempDir(), "spans.jsonl"),
				})
				if rep.err != nil || rep.failed != 0 || rep.attempted == 0 {
					t.Fatalf("attempted %d, failed %d, err %v", rep.attempted, rep.failed, rep.err)
				}
				var out bytes.Buffer
				rep.print(&out)
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var last struct {
					Correct bool
					Metrics map[string]struct{ Value float64 }
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				if !last.Correct || len(last.Metrics) != len(rep.defs) {
					t.Errorf("correct=%v with %d metrics, want true with %d", last.Correct, len(last.Metrics), len(rep.defs))
				}
				if !trace {
					for _, d := range endToEnd {
						if last.Metrics[d.name].Value <= 0 {
							t.Errorf("%s = %v, an end-to-end metric must never be 0", d.name, last.Metrics[d.name].Value)
						}
					}
				}
			})
		}
	}
}

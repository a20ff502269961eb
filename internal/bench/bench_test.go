package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ppm/internal/apps/cg"
	"ppm/internal/apps/colloc"
	"ppm/internal/apps/nbody"
	"ppm/internal/machine"
)

func tinySweep() SweepConfig {
	return SweepConfig{NodeCounts: []int{1, 2, 4}, Machine: machine.Franklin()}
}

func TestFigure1Tiny(t *testing.T) {
	s, err := Figure1CG(tinySweep(), cg.Params{NX: 8, NY: 8, NZ: 16, MaxIter: 4, Tol: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 3 {
		t.Fatalf("points: %d", len(s.Points))
	}
	for _, p := range s.Points {
		if p.PPMSec <= 0 || p.MPISec <= 0 {
			t.Errorf("nodes=%d: non-positive time (%v, %v)", p.Nodes, p.PPMSec, p.MPISec)
		}
	}
	for _, render := range []string{s.Table(), s.CSV(), s.Chart()} {
		if !strings.Contains(render, "4") {
			t.Error("render missing data")
		}
	}
}

func TestFigure2Tiny(t *testing.T) {
	s, err := Figure2Colloc(tinySweep(), colloc.Params{Levels: 4, M0: 8, Delta: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range s.Points {
		if p.PPMSec <= 0 || p.MPISec <= 0 {
			t.Errorf("nodes=%d: non-positive time", p.Nodes)
		}
	}
}

func TestFigure3Tiny(t *testing.T) {
	s, err := Figure3BarnesHut(tinySweep(), nbody.Params{N: 400, Steps: 1, Theta: 0.5, Eps: 0.05, DT: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range s.Points {
		if p.PPMSec <= 0 || p.MPISec <= 0 {
			t.Errorf("nodes=%d: non-positive time", p.Nodes)
		}
		if p.Nodes > 1 && p.MPIBytes <= p.PPMBytes {
			t.Errorf("nodes=%d: replication bytes (%d) should exceed bundled bytes (%d)",
				p.Nodes, p.MPIBytes, p.PPMBytes)
		}
	}
}

func TestCrossoverNodes(t *testing.T) {
	s := &Series{Points: []Point{
		{Nodes: 1, PPMSec: 2, MPISec: 1},
		{Nodes: 2, PPMSec: 1.1, MPISec: 1},
		{Nodes: 4, PPMSec: 0.9, MPISec: 1},
	}}
	if got := s.CrossoverNodes(); got != 4 {
		t.Errorf("crossover = %d, want 4", got)
	}
	s.Points[2].PPMSec = 2
	if got := s.CrossoverNodes(); got != 0 {
		t.Errorf("crossover = %d, want 0", got)
	}
}

func TestCountGoLines(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.go")
	src := `// comment
package x

/* block
comment */
func F() int { // trailing comment counts as code
	return 1 /* inline */ + 2
}
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := CountGoLines(path)
	if err != nil {
		t.Fatal(err)
	}
	// package x; func F...; return...; closing brace = 4
	if n != 4 {
		t.Errorf("counted %d lines, want 4", n)
	}
}

func TestCountGoLinesMissing(t *testing.T) {
	if _, err := CountGoLines("/nonexistent/file.go"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestTable1FromRepo(t *testing.T) {
	root, err := RepoRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Table1CodeSizes(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows: %d", len(rows))
	}
	for _, r := range rows[:3] {
		if r.PPM <= 0 || r.MPI <= 0 {
			t.Errorf("%s: empty counts %+v", r.App, r)
		}
		// The paper's Table 1 point: PPM programs are substantially
		// smaller than the equivalent tuned message-passing programs.
		if limit := 0.95 * float64(r.MPI); float64(r.PPM) >= limit {
			t.Errorf("%s: PPM source (%d lines) must stay under 0.95 x the MPI source (%d lines) = %.2f: %.2f lines over",
				r.App, r.PPM, r.MPI, limit, float64(r.PPM)-limit)
		}
	}
	out := Table1String(rows)
	if !strings.Contains(out, "Barnes-Hut") || !strings.Contains(out, "N/A") {
		t.Errorf("table rendering:\n%s", out)
	}
}

func TestRepoRootFailsAtFilesystemRoot(t *testing.T) {
	if _, err := RepoRoot("/tmp"); err == nil {
		// /tmp could theoretically contain go.mod; tolerate but check type
		t.Skip("unexpected go.mod above /tmp")
	}
}

func TestDefaultSweepShape(t *testing.T) {
	c := DefaultSweep()
	if len(c.NodeCounts) == 0 || c.CoresPerNode != 4 || c.Machine == nil {
		t.Errorf("default sweep: %+v", c)
	}
}

package dist

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"

	"ppm/internal/apps/cg"
	"ppm/internal/apps/colloc"
	"ppm/internal/apps/jacobi"
	"ppm/internal/apps/nbody"
	"ppm/internal/core"
)

// nodeBin is the ppm-node binary TestMain builds once for the whole
// package; the subprocess equivalence tests fork it for real.
var nodeBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "ppm-node-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin := filepath.Join(dir, "ppm-node")
	if out, err := exec.Command("go", "build", "-o", bin, "ppm/cmd/ppm-node").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building ppm-node: %v\n%s", err, out)
	} else {
		nodeBin = bin
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// launchApp forks nodes real ppm-node processes over loopback and merges
// their reported fragments — the full production path: process boundary,
// TCP mesh, JSON result transport.
func launchApp(t *testing.T, nodes int, spec AppSpec, args ...string) *Merged {
	t.Helper()
	if nodeBin == "" {
		t.Fatal("ppm-node binary was not built; see TestMain output")
	}
	results, err := LaunchLocal(LaunchOpts{
		Nodes:    nodes,
		NodeBin:  nodeBin,
		NodeArgs: append([]string{"-app", spec.App, "-cores", "2"}, args...),
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Merge(spec, results)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSubprocessCGMatchesSimulator(t *testing.T) {
	for _, nodes := range []int{2, 3} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			opt := distOpt(nodes)
			prm := cg.Params{NX: 8, NY: 8, NZ: 8, MaxIter: 6}
			want, wrep, err := cg.RunPPM(opt, prm)
			if err != nil {
				t.Fatal(err)
			}
			m := launchApp(t, nodes, AppSpec{App: "cg", CG: prm},
				"-cg-grid", "8x8x8", "-cg-iters", "6")
			if m.CG.Iters != want.Iters {
				t.Fatalf("iters = %d, want %d", m.CG.Iters, want.Iters)
			}
			if math.Float64bits(m.CG.Residual) != math.Float64bits(want.Residual) {
				t.Fatalf("residual = %v, want %v", m.CG.Residual, want.Residual)
			}
			sameF64(t, "x", m.CG.X, want.X)
			samePerNode(t, m.PerNode, wrep.PerNode)
		})
	}
}

func TestSubprocessJacobiMatchesSimulator(t *testing.T) {
	opt := distOpt(2)
	prm := jacobi.Params{NX: 10, NY: 6, NZ: 4, Sweeps: 5}
	want, wrep, err := jacobi.RunPPM(opt, prm)
	if err != nil {
		t.Fatal(err)
	}
	m := launchApp(t, 2, AppSpec{App: "jacobi", Jacobi: prm},
		"-jacobi-grid", "10x6x4", "-jacobi-sweeps", "5")
	sameF64(t, "u", m.Jacobi, want)
	samePerNode(t, m.PerNode, wrep.PerNode)
}

func TestSubprocessCollocMatchesSimulator(t *testing.T) {
	opt := distOpt(2)
	prm := colloc.Params{Levels: 4, M0: 6, Delta: 3} // ppm-node hardwires Delta 3
	want, wrep, err := colloc.RunPPM(opt, prm)
	if err != nil {
		t.Fatal(err)
	}
	m := launchApp(t, 2, AppSpec{App: "colloc", Colloc: prm},
		"-colloc-levels", "4", "-colloc-m0", "6")
	if m.Colloc.N != want.N {
		t.Fatalf("N = %d, want %d", m.Colloc.N, want.N)
	}
	for i := range want.Rows {
		if len(m.Colloc.Rows[i]) != len(want.Rows[i]) {
			t.Fatalf("row %d: %d entries, want %d", i, len(m.Colloc.Rows[i]), len(want.Rows[i]))
		}
		for j, e := range want.Rows[i] {
			g := m.Colloc.Rows[i][j]
			if g.Col != e.Col || math.Float64bits(g.Val) != math.Float64bits(e.Val) {
				t.Fatalf("entry (%d,%d) = (%d,%v), want (%d,%v)", i, j, g.Col, g.Val, e.Col, e.Val)
			}
		}
	}
	samePerNode(t, m.PerNode, wrep.PerNode)
}

func TestSubprocessNbodyMatchesSimulator(t *testing.T) {
	opt := distOpt(2)
	prm := nbody.Params{N: 64, Steps: 2, Theta: 0.5, Eps: 0.05, DT: 0.01, Seed: 42}
	want, wrep, err := nbody.RunPPM(opt, prm)
	if err != nil {
		t.Fatal(err)
	}
	m := launchApp(t, 2, AppSpec{App: "nbody", Nbody: prm},
		"-bh-n", "64", "-bh-steps", "2")
	sameF64(t, "px", m.Nbody.PX, want.PX)
	sameF64(t, "py", m.Nbody.PY, want.PY)
	sameF64(t, "pz", m.Nbody.PZ, want.PZ)
	sameF64(t, "vx", m.Nbody.VX, want.VX)
	sameF64(t, "vy", m.Nbody.VY, want.VY)
	sameF64(t, "vz", m.Nbody.VZ, want.VZ)
	sameF64(t, "m", m.Nbody.M, want.M)
	samePerNode(t, m.PerNode, wrep.PerNode)
}

// TestSubprocessFailureSurfaces checks the launcher attributes a failing
// rank: a bogus app makes every node exit non-zero with Err set, and the
// launch error names each rank.
func TestSubprocessFailureSurfaces(t *testing.T) {
	if nodeBin == "" {
		t.Fatal("ppm-node binary was not built; see TestMain output")
	}
	results, err := LaunchLocal(LaunchOpts{
		Nodes:    2,
		NodeBin:  nodeBin,
		NodeArgs: []string{"-app", "no-such-app"},
		Stderr:   nopWriter{}, // the forked nodes intentionally complain
	})
	if err == nil {
		t.Fatal("expected a launch error")
	}
	for r, res := range results {
		if res.Err == "" {
			t.Errorf("rank %d: error not reported in NodeResult", r)
		}
	}
}

type nopWriter struct{}

func (nopWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestSubprocessNonFiniteMatchesSimulator launches
// examples/jobs/nbody-nonfinite.json, whose particle state overflows to
// NaN and ±Inf, on real node processes: every rank's reply must still
// reach the launcher, and carry the simulator's bits.
func TestSubprocessNonFiniteMatchesSimulator(t *testing.T) {
	if nodeBin == "" {
		t.Fatal("ppm-node binary was not built; see TestMain output")
	}
	raw, err := os.ReadFile("../../examples/jobs/nbody-nonfinite.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Nodes, Cores int
		Nbody        nbody.Params
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	prm := spec.Nbody.WithDefaults()
	want, _, err := nbody.RunPPM(core.Options{Nodes: spec.Nodes, CoresPerNode: spec.Cores}, prm)
	if err != nil {
		t.Fatal(err)
	}
	nonFinite := 0
	for _, v := range slices.Concat(want.PX, want.PY, want.PZ, want.VX, want.VY, want.VZ) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			nonFinite++
		}
	}
	if nonFinite == 0 {
		t.Fatal("the simulator's particle state is finite; the spec no longer tests what it names")
	}
	results, err := LaunchLocal(LaunchOpts{Nodes: spec.Nodes, NodeBin: nodeBin, NodeArgs: []string{"-spec-json", string(raw)}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Merge(AppSpec{App: "nbody", Nbody: prm}, results)
	if err != nil {
		t.Fatal(err)
	}
	sameF64(t, "px", m.Nbody.PX, want.PX)
	sameF64(t, "py", m.Nbody.PY, want.PY)
	sameF64(t, "pz", m.Nbody.PZ, want.PZ)
	sameF64(t, "vx", m.Nbody.VX, want.VX)
	sameF64(t, "vy", m.Nbody.VY, want.VY)
	sameF64(t, "vz", m.Nbody.VZ, want.VZ)
	sameF64(t, "m", m.Nbody.M, want.M)
}

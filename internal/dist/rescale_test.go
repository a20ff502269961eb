package dist

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ppm/internal/apps/cg"
	"ppm/internal/apps/jacobi"
	"ppm/internal/apps/scatter"
	"ppm/internal/core"
	"ppm/internal/partition"
)

// Elastic-rescale recovery: checkpoints written by an N-rank fleet are
// restored onto M < N host processes (each hosting a block of logical
// ranks), and the result must stay bit-identical to an uninterrupted
// N-rank run — the logical mesh never changes, only where ranks live.

// runAppMeshPerRank is runAppMesh with per-rank Options: the rescale
// tests give each rank its own block-hosting checkpoint metadata.
func runAppMeshPerRank(t *testing.T, nodes int, opt func(rank int) core.Options, spec AppSpec) *Merged {
	t.Helper()
	results := make([]NodeResult, nodes)
	runMesh(t, nodes, func(rank int, eng *Engine) error {
		results[rank] = *RunApp(eng, opt(rank), spec)
		return nil
	})
	m, err := Merge(spec, results)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// rescaleSpecs are the three apps the ISSUE's acceptance names, all
// checkpoint-aware, small enough to run three meshes per subtest.
func rescaleSpecs() []AppSpec {
	return []AppSpec{
		{App: "cg", CG: cg.Params{NX: 8, NY: 8, NZ: 8, MaxIter: 6}},
		{App: "jacobi", Jacobi: jacobi.Params{NX: 10, NY: 6, NZ: 4, Sweeps: 8}},
		{App: "scatter", Scatter: scatter.Params{N: 400, VPs: 4, Iters: 4, Seed: 7}},
	}
}

// simReference runs spec on the simulator and returns the merged-shape
// reference output plus per-node stats.
func simReference(t *testing.T, nodes int, spec AppSpec) (*Merged, []core.NodeStats) {
	t.Helper()
	want := &Merged{}
	var rep *core.Report
	var err error
	switch spec.App {
	case "cg":
		want.CG, rep, err = cg.RunPPM(distOpt(nodes), spec.CG)
	case "jacobi":
		want.Jacobi, rep, err = jacobi.RunPPM(distOpt(nodes), spec.Jacobi)
	case "scatter":
		want.Scatter, rep, err = scatter.RunPPM(distOpt(nodes), spec.Scatter)
	default:
		t.Fatalf("rescale tests do not know app %q", spec.App)
	}
	if err != nil {
		t.Fatal(err)
	}
	return want, rep.PerNode
}

// sameAppOutput asserts the app payload of got is bit-identical to want.
func sameAppOutput(t *testing.T, spec AppSpec, got, want *Merged) {
	t.Helper()
	switch spec.App {
	case "cg":
		if got.CG.Iters != want.CG.Iters || math.Float64bits(got.CG.Residual) != math.Float64bits(want.CG.Residual) {
			t.Fatalf("cg = (%d, %v), want (%d, %v)", got.CG.Iters, got.CG.Residual, want.CG.Iters, want.CG.Residual)
		}
		sameF64(t, "x", got.CG.X, want.CG.X)
	case "jacobi":
		sameF64(t, "u", got.Jacobi, want.Jacobi)
	case "scatter":
		if len(got.Scatter) != len(want.Scatter) {
			t.Fatalf("scatter: %d VP rows, want %d", len(got.Scatter), len(want.Scatter))
		}
		for i := range want.Scatter {
			sameF64(t, "scatter row", got.Scatter[i], want.Scatter[i])
		}
	}
}

// TestRescaledRestoreBitIdentical is the in-process half of the ISSUE's
// acceptance: a 3-rank checkpointing run, then a restore where 2 host
// processes carry the 3 logical ranks (rank 2 moves onto host 1), must
// reproduce the uninterrupted run bit for bit — outputs and counters —
// for cg, jacobi, and scatter. The Rescale block must record the move
// without entering the equivalence surface.
func TestRescaledRestoreBitIdentical(t *testing.T) {
	const nodes, hostProcs = 3, 2
	hosts := partition.NewBlock(nodes, hostProcs)
	for _, spec := range rescaleSpecs() {
		t.Run(spec.App, func(t *testing.T) {
			want, wantPerNode := simReference(t, nodes, spec)
			dir := t.TempDir()

			m := runAppMesh(t, nodes, ckptOpt(nodes, dir, 2, false), spec)
			sameAppOutput(t, spec, m, want)
			samePerNode(t, m.PerNode, wantPerNode)

			m2 := runAppMeshPerRank(t, nodes, func(rank int) core.Options {
				opt := distOpt(nodes)
				opt.Checkpoint = &core.CheckpointConfig{
					Dir: dir, EveryPhases: 2, Restore: true,
					HostProcs: hostProcs, HostProc: hosts.Owner(rank),
				}
				return opt
			}, spec)
			sameAppOutput(t, spec, m2, want)
			samePerNode(t, m2.PerNode, wantPerNode)

			// The Rescale block is measurement, not result: 3 ranks on 2
			// hosts, one restore each, and ranks whose host index differs
			// from their rank (1 and 2 under a 3-over-2 block partition)
			// counted as moved with their local elements.
			for rank := 0; rank < nodes; rank++ {
				rs := m2.PerNode[rank].Rescale
				if rs.FromProcs != nodes || rs.ToProcs != hostProcs || rs.Restores != 1 {
					t.Errorf("rank %d Rescale = %+v, want From=3 To=2 Restores=1", rank, rs)
				}
				moved := hosts.Owner(rank) != rank
				if moved && (rs.RanksMoved != 1 || rs.ElemsMoved == 0) {
					t.Errorf("rank %d moved hosts but Rescale = %+v", rank, rs)
				}
				if !moved && (rs.RanksMoved != 0 || rs.ElemsMoved != 0) {
					t.Errorf("rank %d stayed put but Rescale = %+v", rank, rs)
				}
			}
		})
	}
}

// rescaleNodeArgs builds the ppm-node argument list for spec at 3 nodes.
func rescaleNodeArgs(t *testing.T, spec AppSpec) []string {
	t.Helper()
	var args []string
	switch spec.App {
	case "cg":
		args = []string{"-app", "cg", "-cores", "2", "-cg-grid", "8x8x8", "-cg-iters", "6"}
	case "jacobi":
		args = []string{"-app", "jacobi", "-cores", "2", "-jacobi-grid", "10x6x4", "-jacobi-sweeps", "8"}
	case "scatter":
		args = []string{"-app", "scatter", "-cores", "2",
			"-scatter-n", "400", "-scatter-vps", "4", "-scatter-iters", "4", "-scatter-seed", "7"}
	default:
		t.Fatalf("rescale tests do not know app %q", spec.App)
	}
	return append(args, detectorArgs...)
}

// TestSubprocessRescaleRecovery is the forked-fleet half: host process 2
// of a 3-process fleet dies permanently (killhost re-arms on every
// attempt), the supervisor blames it for two failed attempts, rescales
// the fleet to 2 host processes, and the job finishes on them — with
// rank 2 restored from its checkpoint onto host 1 — bit-identical to an
// uninterrupted 3-rank run.
func TestSubprocessRescaleRecovery(t *testing.T) {
	if nodeBin == "" {
		t.Fatal("ppm-node binary was not built; see TestMain output")
	}
	for _, spec := range rescaleSpecs() {
		t.Run(spec.App, func(t *testing.T) {
			want, wantPerNode := simReference(t, 3, spec)

			restarts := 0
			rescaledTo := 0
			results, err := LaunchLocal(LaunchOpts{
				Nodes:           3,
				NodeBin:         nodeBin,
				NodeArgs:        rescaleNodeArgs(t, spec),
				Env:             []string{"PPM_FAULT=killhost=2@phase:3"},
				MaxRestarts:     3,
				CheckpointDir:   t.TempDir(),
				CheckpointEvery: 2,
				Stderr:          nopWriter{}, // the dying host and its survivors complain on purpose
				OnRetry: func(_, procs int, _ error) {
					restarts++
					if procs < 3 {
						rescaledTo = procs
					}
				},
			})
			if err != nil {
				t.Fatalf("supervised launch did not recover: %v", err)
			}
			if restarts == 0 {
				t.Fatal("fleet succeeded without restarting — the killhost fault never fired")
			}
			if rescaledTo != 2 {
				t.Fatalf("fleet rescaled to %d host processes, want 2", rescaledTo)
			}
			m, err := Merge(spec, results)
			if err != nil {
				t.Fatal(err)
			}
			sameAppOutput(t, spec, m, want)
			samePerNode(t, m.PerNode, wantPerNode)
		})
	}
}

// TestSubprocessRescaleFloor pins the floor of 1 host process: host 0
// dies permanently, the fleet shrinks to one process, which is host 0
// again, and with nowhere left to shrink the launch must surface a clean
// error naming the host and the floor, not loop forever.
func TestSubprocessRescaleFloor(t *testing.T) {
	if nodeBin == "" {
		t.Fatal("ppm-node binary was not built; see TestMain output")
	}
	_, err := LaunchLocal(LaunchOpts{
		Nodes:   2,
		NodeBin: nodeBin,
		NodeArgs: append([]string{"-app", "jacobi", "-cores", "2",
			"-jacobi-grid", "10x6x4", "-jacobi-sweeps", "8"}, detectorArgs...),
		Env:             []string{"PPM_FAULT=killhost=0@phase:3"},
		MaxRestarts:     4,
		CheckpointDir:   t.TempDir(),
		CheckpointEvery: 2,
		Stderr:          nopWriter{},
	})
	if err == nil {
		t.Fatal("launch at the floor reported success despite a permanently dead host")
	}
	if !strings.Contains(err.Error(), "permanently dead") || !strings.Contains(err.Error(), "floor of 1 host process") {
		t.Errorf("floor error does not explain itself:\n%v", err)
	}
}

// TestRescaledCheckpointDirSurvivesHostDeath double-checks the file
// layout contract the supervisor relies on: the checkpoint files a dead
// host's ranks wrote are plain per-rank files any process can restore,
// so a rescaled host picks them up with no renaming or migration step.
func TestRescaledCheckpointDirSurvivesHostDeath(t *testing.T) {
	dir := t.TempDir()
	spec := AppSpec{App: "jacobi", Jacobi: jacobi.Params{NX: 10, NY: 6, NZ: 4, Sweeps: 4}}
	runAppMesh(t, 3, ckptOpt(3, dir, 1, false), spec)
	for rank := 0; rank < 3; rank++ {
		if _, err := os.Stat(filepath.Join(dir, ckptName(rank, 4))); err != nil {
			t.Errorf("rank %d final checkpoint missing: %v", rank, err)
		}
	}
}

// Plan-cache equivalence over the full figure-app matrix: every app run
// with the steady-state phase-plan cache enabled must be bit-identical —
// outputs and modeled per-node counters — to the same run with the
// cache disabled (core.Options.NoPlanCache / PPM_PLAN_CACHE=0). The
// cache memoizes host-side work only; any observable difference is a
// bug in it.
package ppm_test

import (
	"math"
	"testing"

	"ppm/internal/apps/cg"
	"ppm/internal/apps/colloc"
	"ppm/internal/apps/jacobi"
	"ppm/internal/apps/nbody"
	"ppm/internal/apps/scatter"
	"ppm/internal/apps/search"
	"ppm/internal/core"
	"ppm/internal/machine"
)

func planOpt(nodes int, noCache bool) core.Options {
	return core.Options{Nodes: nodes, CoresPerNode: 2, Machine: machine.Generic(), NoPlanCache: noCache}
}

func samePlanF64(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", label, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// samePlanStats compares what the program computed (NodeStats.Program,
// which drops the PlanCache block under test) with the wall-clock-measured
// phase times zeroed (host timing jitter).
func samePlanStats(t *testing.T, got, want []core.NodeStats) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("per-node stats: %d nodes, want %d", len(got), len(want))
	}
	for n := range want {
		g, w := got[n].Program(), want[n].Program()
		g.PhaseComputeTime, g.PhaseCommTime, g.PhaseApplyTime = 0, 0, 0
		w.PhaseComputeTime, w.PhaseCommTime, w.PhaseApplyTime = 0, 0, 0
		if g != w {
			t.Errorf("node %d counters diverge:\n cache-on  %+v\n cache-off %+v", n, g, w)
		}
	}
}

func TestPlanCacheFigureAppEquivalence(t *testing.T) {
	t.Setenv("PPM_PLAN_CACHE", "") // let the Options field decide
	t.Run("cg", func(t *testing.T) {
		prm := cg.Params{NX: 8, NY: 8, NZ: 8, MaxIter: 6}
		on, onRep, err := cg.RunPPM(planOpt(3, false), prm)
		if err != nil {
			t.Fatal(err)
		}
		off, offRep, err := cg.RunPPM(planOpt(3, true), prm)
		if err != nil {
			t.Fatal(err)
		}
		if on.Iters != off.Iters || math.Float64bits(on.Residual) != math.Float64bits(off.Residual) {
			t.Fatalf("cg diverges: on iters=%d res=%v, off iters=%d res=%v",
				on.Iters, on.Residual, off.Iters, off.Residual)
		}
		samePlanF64(t, "x", on.X, off.X)
		samePlanStats(t, onRep.PerNode, offRep.PerNode)
		if onRep.Totals.PlanCache.Hits == 0 {
			t.Error("cg: cache-on run recorded no plan hits — the cache never engaged")
		}
	})
	t.Run("jacobi", func(t *testing.T) {
		prm := jacobi.Params{NX: 10, NY: 6, NZ: 4, Sweeps: 5}
		on, onRep, err := jacobi.RunPPM(planOpt(2, false), prm)
		if err != nil {
			t.Fatal(err)
		}
		off, offRep, err := jacobi.RunPPM(planOpt(2, true), prm)
		if err != nil {
			t.Fatal(err)
		}
		samePlanF64(t, "u", on, off)
		samePlanStats(t, onRep.PerNode, offRep.PerNode)
		if onRep.Totals.PlanCache.Hits == 0 {
			t.Error("jacobi: cache-on run recorded no plan hits — the cache never engaged")
		}
	})
	t.Run("colloc", func(t *testing.T) {
		prm := colloc.Params{Levels: 4, M0: 6, Delta: 2.5}
		on, onRep, err := colloc.RunPPM(planOpt(3, false), prm)
		if err != nil {
			t.Fatal(err)
		}
		off, offRep, err := colloc.RunPPM(planOpt(3, true), prm)
		if err != nil {
			t.Fatal(err)
		}
		if on.N != off.N {
			t.Fatalf("colloc N: on %d, off %d", on.N, off.N)
		}
		for i := range off.Rows {
			if len(on.Rows[i]) != len(off.Rows[i]) {
				t.Fatalf("row %d: %d entries, want %d", i, len(on.Rows[i]), len(off.Rows[i]))
			}
			for j, e := range off.Rows[i] {
				g := on.Rows[i][j]
				if g.Col != e.Col || math.Float64bits(g.Val) != math.Float64bits(e.Val) {
					t.Fatalf("entry (%d,%d) = (%d,%v), want (%d,%v)", i, j, g.Col, g.Val, e.Col, e.Val)
				}
			}
		}
		samePlanStats(t, onRep.PerNode, offRep.PerNode)
	})
	t.Run("nbody", func(t *testing.T) {
		prm := nbody.Params{N: 64, Steps: 2, Theta: 0.5, Eps: 0.05, DT: 0.01, Seed: 7}
		on, onRep, err := nbody.RunPPM(planOpt(2, false), prm)
		if err != nil {
			t.Fatal(err)
		}
		off, offRep, err := nbody.RunPPM(planOpt(2, true), prm)
		if err != nil {
			t.Fatal(err)
		}
		samePlanF64(t, "px", on.PX, off.PX)
		samePlanF64(t, "py", on.PY, off.PY)
		samePlanF64(t, "pz", on.PZ, off.PZ)
		samePlanF64(t, "vx", on.VX, off.VX)
		samePlanF64(t, "vy", on.VY, off.VY)
		samePlanF64(t, "vz", on.VZ, off.VZ)
		samePlanF64(t, "m", on.M, off.M)
		samePlanStats(t, onRep.PerNode, offRep.PerNode)
	})
	t.Run("search", func(t *testing.T) {
		prm := search.Params{N: 4096, K: 64, Seed: 7}
		on, onRep, err := search.RunPPM(planOpt(2, false), prm)
		if err != nil {
			t.Fatal(err)
		}
		off, offRep, err := search.RunPPM(planOpt(2, true), prm)
		if err != nil {
			t.Fatal(err)
		}
		for n := range off {
			for i := range off[n] {
				if on[n][i] != off[n][i] {
					t.Fatalf("node %d rank[%d] = %d, want %d", n, i, on[n][i], off[n][i])
				}
			}
		}
		samePlanStats(t, onRep.PerNode, offRep.PerNode)
	})
	t.Run("scatter", func(t *testing.T) {
		on, onRep, err := scatter.RunPPM(planOpt(3, false), scatter.Params{})
		if err != nil {
			t.Fatal(err)
		}
		off, offRep, err := scatter.RunPPM(planOpt(3, true), scatter.Params{})
		if err != nil {
			t.Fatal(err)
		}
		for n := range off {
			samePlanF64(t, "partition", on[n], off[n])
		}
		samePlanStats(t, onRep.PerNode, offRep.PerNode)
		if onRep.Totals.PlanCache.Hits == 0 {
			t.Error("scatter: cache-on run recorded no plan hits — the cache never engaged")
		}
	})
}

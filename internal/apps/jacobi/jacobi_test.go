package jacobi

import (
	"math"
	"testing"

	"ppm/internal/core"
	"ppm/internal/machine"
)

var small = Params{NX: 8, NY: 6, NZ: 10, Sweeps: 5}

func TestValidation(t *testing.T) {
	if _, err := Solve(Params{NX: 0, NY: 1, NZ: 1, Sweeps: 1}); err == nil {
		t.Error("bad grid accepted")
	}
	if _, err := Solve(Params{NX: 1, NY: 1, NZ: 1, Sweeps: -1}); err == nil {
		t.Error("bad sweeps accepted")
	}
}

func TestSequentialConvergesTowardFixedPoint(t *testing.T) {
	a, err := Solve(Params{NX: 6, NY: 6, NZ: 6, Sweeps: 50})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(Params{NX: 6, NY: 6, NZ: 6, Sweeps: 51})
	if err != nil {
		t.Fatal(err)
	}
	var diff float64
	for i := range a {
		diff = math.Max(diff, math.Abs(a[i]-b[i]))
	}
	if diff > 0.05 {
		t.Errorf("iterates not contracting: step delta %v", diff)
	}
	for _, v := range a {
		if math.IsNaN(v) || v < 0 {
			t.Fatal("grid corrupted")
		}
	}
}

func TestPPMBitwiseMatchesSequential(t *testing.T) {
	ref, err := Solve(small)
	if err != nil {
		t.Fatal(err)
	}
	for _, nodes := range []int{1, 2, 4} {
		got, rep, err := RunPPM(core.Options{Nodes: nodes, Machine: machine.Generic()}, small)
		if err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("nodes=%d: u[%d] = %v, want %v", nodes, i, got[i], ref[i])
			}
		}
		if nodes > 1 && rep.Totals.RemoteReadElems == 0 {
			t.Errorf("nodes=%d: no halo reads", nodes)
		}
	}
}

func TestMPIBitwiseMatchesSequential(t *testing.T) {
	ref, err := Solve(small)
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range [][2]int{{1, 1}, {2, 2}, {4, 1}} {
		got, rep, err := RunMPI(MPIOptions{Nodes: shape[0], CoresPerNode: shape[1], Machine: machine.Generic()}, small)
		if err != nil {
			t.Fatalf("shape %v: %v", shape, err)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("shape %v: u[%d] = %v, want %v", shape, i, got[i], ref[i])
			}
		}
		if shape[0]*shape[1] > 1 && rep.Totals.MsgsSent == 0 {
			t.Errorf("shape %v: no halo messages", shape)
		}
	}
}

// The paper's concession: message passing is successful on structured
// applications. On this regular stencil the two models must be within a
// small factor of each other — nothing like the 10-20x PPM wins of the
// unstructured Figures 2-3 — and at low node counts (halo small, per-rank
// work large) MPI must not trail PPM at all.
func TestStructuredAppStaysCompetitive(t *testing.T) {
	p := Params{NX: 16, NY: 16, NZ: 32, Sweeps: 8}
	for _, nodes := range []int{4, 16} {
		_, prep, err := RunPPM(core.Options{Nodes: nodes, Machine: machine.Franklin()}, p)
		if err != nil {
			t.Fatal(err)
		}
		_, mrep, err := RunMPI(MPIOptions{Nodes: nodes, Machine: machine.Franklin()}, p)
		if err != nil {
			t.Fatal(err)
		}
		ppmSec := prep.Makespan().Seconds()
		mpiSec := mrep.Makespan.Seconds()
		if ratio := ppmSec / mpiSec; ratio < 0.45 || ratio > 4 {
			t.Errorf("nodes=%d: structured app should keep the models close: PPM/MPI = %v", nodes, ratio)
		}
		if nodes == 4 && ppmSec < mpiSec*0.9 {
			t.Errorf("nodes=%d: MPI should not trail PPM at low node counts: %v vs %v", nodes, ppmSec, mpiSec)
		}
	}
}

// TestStrictHazardsAreBounded runs the default job strict on one node.
// Each sweep reads, as a neighbour, points the same VP updated earlier in
// the sweep: 276,320 stale reads by design, which Report.Hazards folds
// into one row per sweep (one array, one phase each) naming at most
// core.HazardExamples of them.
func TestStrictHazardsAreBounded(t *testing.T) {
	p := Params{}.WithDefaults()
	_, rep, err := RunPPM(core.Options{Nodes: 1, StrictWrites: true}, p)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, h := range rep.Hazards {
		total += h.Count
		if h.Kind != core.StaleRead || h.Array != "jacobi.u" || len(h.Examples) > core.HazardExamples {
			t.Errorf("unexpected row %v", h)
		}
	}
	if len(rep.Hazards) != p.Sweeps || total != 276320 {
		t.Errorf("%d rows of %d stale reads, want %d rows of 276320", len(rep.Hazards), total, p.Sweeps)
	}
}

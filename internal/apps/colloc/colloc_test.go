package colloc

import (
	"math"
	"testing"

	"ppm/internal/core"
	"ppm/internal/machine"
)

var small = Params{Levels: 4, M0: 6, Delta: 2.5}

func TestParams(t *testing.T) {
	if small.N() != 6*15 {
		t.Errorf("N = %d", small.N())
	}
	if small.offset(0) != 0 || small.offset(1) != 6 || small.offset(2) != 18 {
		t.Error("offsets wrong")
	}
	l, k := small.levelOf(0)
	if l != 0 || k != 0 {
		t.Error("levelOf(0)")
	}
	l, k = small.levelOf(17)
	if l != 1 || k != 11 {
		t.Errorf("levelOf(17) = (%d,%d)", l, k)
	}
	if _, err := Generate(Params{Levels: 0, M0: 4, Delta: 1}); err == nil {
		t.Error("bad Levels accepted")
	}
	if _, err := Generate(Params{Levels: 2, M0: 0, Delta: 1}); err == nil {
		t.Error("bad M0 accepted")
	}
	if _, err := Generate(Params{Levels: 2, M0: 4, Delta: 0}); err == nil {
		t.Error("bad Delta accepted")
	}
}

func TestRowPatternProperties(t *testing.T) {
	p := small
	for i := 0; i < p.N(); i++ {
		cols := RowPattern(p, i)
		if len(cols) == 0 {
			t.Fatalf("row %d empty", i)
		}
		// Columns strictly increasing, each within bounds; diagonal present.
		hasDiag := false
		for k, c := range cols {
			if c.Col < 0 || c.Col >= p.N() {
				t.Fatalf("row %d col %d out of range", i, c.Col)
			}
			if k > 0 && cols[k-1].Col >= c.Col {
				t.Fatalf("row %d columns not increasing", i)
			}
			if c.Col == i {
				hasDiag = true
			}
			if want := maxInt(levelOfCol(p, i), c.Lj); c.Lq != want {
				t.Fatalf("row %d col %d: Lq = %d, want %d", i, c.Col, c.Lq, want)
			}
		}
		if !hasDiag {
			t.Fatalf("row %d missing diagonal", i)
		}
	}
}

// Expanding a row's runs gives its pattern exactly, slots numbered on
// from the first run's; Delta = 0.3 leaves some column levels without an
// entry, and Delta = 40 makes a run span a whole level.
func TestRowRunsMatchRowPattern(t *testing.T) {
	var pat []ColRef
	var runs []RowRun
	for levels := 1; levels <= 8; levels++ {
		for m0 := 1; m0 <= 13; m0++ {
			for _, delta := range []float64{0.3, 1, 2.5, 3, 40} {
				p := Params{Levels: levels, M0: m0, Delta: delta}
				whole := false
				for i := 0; i < p.N(); i++ {
					pat = AppendRowPattern(pat[:0], p, i)
					// Appending keeps what the slice already holds.
					pre := RowRun{Row: -1}
					runs = AppendRowRuns(append(runs[:0], pre), p, i, 7)
					if runs[0] != pre {
						t.Fatalf("%+v row %d: AppendRowRuns overwrote what out held", p, i)
					}
					k := 0
					for _, r := range runs[1:] {
						if r.Row != i || r.N <= 0 || r.Slot != 7+k {
							t.Fatalf("%+v row %d: run %+v after %d entries", p, i, r, k)
						}
						whole = whole || r.N == p.m(r.Lj)
						for e := range r.N {
							if k >= len(pat) || r.Ref(p, e) != pat[k] {
								t.Fatalf("%+v row %d: run %+v entry %d is %+v, want RowPattern's", p, i, r, e, r.Ref(p, e))
							}
							k++
						}
					}
					if k != len(pat) {
						t.Fatalf("%+v row %d: runs hold %d entries, RowPattern %d", p, i, k, len(pat))
					}
				}
				if delta == 40 && !whole {
					t.Errorf("%+v: no run spans a whole level", p)
				}
			}
		}
	}
}

func levelOfCol(p Params, i int) int {
	l, _ := p.levelOf(i)
	return l
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestGenerateBasicSanity(t *testing.T) {
	m, err := Generate(small)
	if err != nil {
		t.Fatal(err)
	}
	if m.N != small.N() || m.NNZ() == 0 {
		t.Fatal("empty matrix")
	}
	// All values finite; diagonal entries nonzero.
	for i, row := range m.Rows {
		for _, e := range row {
			if math.IsNaN(e.Val) || math.IsInf(e.Val, 0) {
				t.Fatalf("row %d col %d not finite: %v", i, e.Col, e.Val)
			}
		}
	}
	// Sparsity is asymptotic (nnz ~ n log n): density must fall as the
	// level count grows.
	big, err := Generate(Params{Levels: 7, M0: small.M0, Delta: small.Delta})
	if err != nil {
		t.Fatal(err)
	}
	densSmall := float64(m.NNZ()) / float64(m.N*m.N)
	densBig := float64(big.NNZ()) / float64(big.N*big.N)
	if densBig >= densSmall/2 {
		t.Errorf("density did not fall with size: %v -> %v", densSmall, densBig)
	}
}

func TestPPMMatchesSequentialExactly(t *testing.T) {
	ref, err := Generate(small)
	if err != nil {
		t.Fatal(err)
	}
	for _, nodes := range []int{1, 2, 3, 5} {
		m, rep, err := RunPPM(core.Options{Nodes: nodes, Machine: machine.Generic()}, small)
		if err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
		if !m.Equal(ref) {
			t.Errorf("nodes=%d: PPM matrix differs from sequential", nodes)
		}
		if nodes > 1 && rep.Totals.RemoteReadElems == 0 {
			t.Errorf("nodes=%d: expected remote table reads", nodes)
		}
	}
}

func TestMPIMatchesSequentialExactly(t *testing.T) {
	ref, err := Generate(small)
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range [][2]int{{1, 1}, {2, 2}, {3, 1}, {2, 4}} {
		m, rep, err := RunMPI(MPIOptions{Nodes: shape[0], CoresPerNode: shape[1], Machine: machine.Generic()}, small)
		if err != nil {
			t.Fatalf("shape %v: %v", shape, err)
		}
		if !m.Equal(ref) {
			t.Errorf("shape %v: MPI matrix differs from sequential", shape)
		}
		if shape[0]*shape[1] > 1 && rep.Totals.MsgsSent == 0 {
			t.Errorf("shape %v: no messages sent", shape)
		}
	}
}

func TestPPMEqualsMPI(t *testing.T) {
	a, _, err := RunPPM(core.Options{Nodes: 4, Machine: machine.Generic()}, small)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := RunMPI(MPIOptions{Nodes: 4, CoresPerNode: 1, Machine: machine.Generic()}, small)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("PPM and MPI matrices differ")
	}
}

func TestDeterministicMakespan(t *testing.T) {
	run := func() float64 {
		_, rep, err := RunPPM(core.Options{Nodes: 3, Machine: machine.Generic()}, small)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Makespan().Seconds()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("nondeterministic: %v vs %v", a, b)
	}
}

func TestTableEntryDeterministic(t *testing.T) {
	v1, f1 := TableEntry(small, 2, 7)
	v2, f2 := TableEntry(small, 2, 7)
	if v1 != v2 || f1 != f2 {
		t.Error("TableEntry nondeterministic")
	}
	if f1 <= 0 {
		t.Error("no flops reported")
	}
}

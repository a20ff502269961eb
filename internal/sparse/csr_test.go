package sparse

import (
	"math"
	"testing"
	"testing/quick"

	"ppm/internal/rng"
)

func TestStencilShape(t *testing.T) {
	a := Stencil27(4, 3, 5)
	if a.Rows != 60 || a.Cols != 60 {
		t.Fatalf("shape %dx%d", a.Rows, a.Cols)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	// Interior points have all 27 neighbors; corners have 8.
	maxRow, minRow := 0, 1<<30
	for r := 0; r < a.Rows; r++ {
		n := a.RowPtr[r+1] - a.RowPtr[r]
		if n > maxRow {
			maxRow = n
		}
		if n < minRow {
			minRow = n
		}
	}
	if maxRow != 27 {
		t.Errorf("max row nnz = %d, want 27", maxRow)
	}
	if minRow != 8 {
		t.Errorf("min row nnz = %d, want 8 (corner)", minRow)
	}
}

func TestStencilSymmetricSPD(t *testing.T) {
	a := Stencil27(3, 4, 2)
	if !a.IsSymmetric() {
		t.Error("stencil not symmetric")
	}
	// Strict diagonal dominance: diag > sum |offdiag|.
	for r := 0; r < a.Rows; r++ {
		var diag, off float64
		for k := a.RowPtr[r]; k < a.RowPtr[r+1]; k++ {
			if a.Col[k] == r {
				diag = a.Val[k]
			} else {
				off += math.Abs(a.Val[k])
			}
		}
		if diag <= off {
			t.Fatalf("row %d not strictly dominant: %v vs %v", r, diag, off)
		}
	}
}

func TestStencilColumnsSorted(t *testing.T) {
	a := Stencil27(5, 5, 5)
	for r := 0; r < a.Rows; r++ {
		for k := a.RowPtr[r] + 1; k < a.RowPtr[r+1]; k++ {
			if a.Col[k] <= a.Col[k-1] {
				t.Fatalf("row %d columns not strictly increasing", r)
			}
		}
	}
}

func TestMulVecAgainstDense(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		a := Stencil27(3, 3, 3)
		x := make([]float64, a.Cols)
		for i := range x {
			x[i] = r.Float64()*2 - 1
		}
		y := make([]float64, a.Rows)
		flops := a.MulVec(y, x)
		if flops != int64(2*a.NNZ()) {
			return false
		}
		// Dense reference.
		want := make([]float64, a.Rows)
		for row := 0; row < a.Rows; row++ {
			for k := a.RowPtr[row]; k < a.RowPtr[row+1]; k++ {
				want[row] += a.Val[k] * x[a.Col[k]]
			}
		}
		for i := range y {
			if math.Abs(y[i]-want[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestMulVecRowsPartial(t *testing.T) {
	a := Stencil27(4, 4, 4)
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	whole := make([]float64, a.Rows)
	a.MulVec(whole, x)
	part := make([]float64, a.Rows)
	mid := a.Rows / 2
	a.MulVecRows(part, x, 0, mid)
	a.MulVecRows(part, x, mid, a.Rows)
	for i := range whole {
		if part[i] != whole[i] {
			t.Fatalf("row %d: %v vs %v", i, part[i], whole[i])
		}
	}
}

func TestRowNNZ(t *testing.T) {
	a := Stencil27(3, 3, 3)
	if got := a.RowNNZ(0, a.Rows); got != a.NNZ() {
		t.Errorf("RowNNZ full = %d, want %d", got, a.NNZ())
	}
	if got := a.RowNNZ(5, 5); got != 0 {
		t.Errorf("empty range nnz = %d", got)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	a := Stencil27(2, 2, 2)
	a.Col[0] = 999
	if err := a.Validate(); err == nil {
		t.Error("bad column accepted")
	}
	b := Stencil27(2, 2, 2)
	b.RowPtr[1] = -1
	if err := b.Validate(); err == nil {
		t.Error("bad rowptr accepted")
	}
}

func TestStencilRowsMatchesWhole(t *testing.T) {
	nx, ny, nz := 4, 3, 5
	whole := Stencil27(nx, ny, nz)
	n := nx * ny * nz
	for _, rng := range [][2]int{{0, n}, {7, 23}, {0, 1}, {n - 1, n}, {10, 10}} {
		lo, hi := rng[0], rng[1]
		part := Stencil27Rows(nx, ny, nz, lo, hi)
		if err := part.Validate(); err != nil {
			t.Fatalf("[%d,%d): %v", lo, hi, err)
		}
		for r := lo; r < hi; r++ {
			w0, w1 := whole.RowPtr[r], whole.RowPtr[r+1]
			p0, p1 := part.RowPtr[r-lo], part.RowPtr[r-lo+1]
			if w1-w0 != p1-p0 {
				t.Fatalf("row %d nnz differs", r)
			}
			for k := 0; k < w1-w0; k++ {
				if whole.Col[w0+k] != part.Col[p0+k] || whole.Val[w0+k] != part.Val[p0+k] {
					t.Fatalf("row %d entry %d differs", r, k)
				}
			}
		}
	}
}

func TestRowSumsInteriorZeroish(t *testing.T) {
	// With diagonal 27 and 26 interior neighbors of -1, interior row sums
	// are exactly 1.
	a := Stencil27(5, 5, 5)
	idx := func(x, y, z int) int { return (z*5+y)*5 + x }
	r := idx(2, 2, 2)
	var s float64
	for k := a.RowPtr[r]; k < a.RowPtr[r+1]; k++ {
		s += a.Val[k]
	}
	if s != 1 {
		t.Errorf("interior row sum = %v, want 1", s)
	}
}

// ColRuns re-expands to the stored columns, row by row, and allocates its
// two result slices and nothing else.
func TestColRunsRoundTripAndAllocs(t *testing.T) {
	a := Stencil27(5, 4, 3)
	runPtr, runs, maxN := a.ColRuns()
	if len(runs) != cap(runs) {
		t.Errorf("runs sized %d for %d", cap(runs), len(runs))
	}
	longest := 0
	for r := 0; r < a.Rows; r++ {
		k := a.RowPtr[r]
		for _, run := range runs[runPtr[r]:runPtr[r+1]] {
			for j := 0; j < run.N; j++ {
				if a.Col[k] != run.Col+j {
					t.Fatalf("row %d: column %d, want %d", r, run.Col+j, a.Col[k])
				}
				k++
			}
			if run.N > longest {
				longest = run.N
			}
		}
		if k != a.RowPtr[r+1] {
			t.Fatalf("row %d: runs cover %d of %d columns", r, k-a.RowPtr[r], a.RowPtr[r+1]-a.RowPtr[r])
		}
	}
	if maxN != longest || maxN != 3 {
		t.Errorf("maxN %d, longest run %d, want 3", maxN, longest)
	}
	if n := testing.AllocsPerRun(10, func() { a.ColRuns() }); n != 2 {
		t.Errorf("ColRuns allocates %v times, want 2", n)
	}
}

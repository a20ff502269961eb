package sparse

import (
	"math"
	"slices"
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

// maximalRuns is the reference run-length encoding of a stored row: its
// maximal runs of consecutive columns, in stored order.
func maximalRuns(cols []int) []ColRun {
	var runs []ColRun
	for k := 0; k < len(cols); {
		n := 1
		for k+n < len(cols) && cols[k+n] == cols[k]+n {
			n++
		}
		runs = append(runs, ColRun{Col: cols[k], N: n})
		k += n
	}
	return runs
}

// The generated row is the stored row: on every grid up to 5x5x5,
// degenerate sizes included (there lines and planes merge into longer
// runs), each row's runs are the maximal encoding of Stencil27Rows'
// columns, and its values are 27 at diag and -1 elsewhere. Generating
// into a slice with room for nine runs allocates nothing.
func TestStencil27RowRunsMatchesStored(t *testing.T) {
	longest := 0
	for nx := 1; nx <= 5; nx++ {
		for ny := 1; ny <= 5; ny++ {
			for nz := 1; nz <= 5; nz++ {
				n := nx * ny * nz
				a := Stencil27Rows(nx, ny, nz, 0, n)
				buf := make([]ColRun, 0, 9)
				for g := 0; g < n; g++ {
					cols, vals := a.Col[a.RowPtr[g]:a.RowPtr[g+1]], a.Val[a.RowPtr[g]:a.RowPtr[g+1]]
					want := maximalRuns(cols)
					// Appending keeps what the slice already holds.
					pre := append(buf[:0], ColRun{Col: cols[0] - 1, N: 1})
					runs, diag := Stencil27RowRuns(nx, ny, nz, g, pre)
					if runs[0] != pre[0] || !slices.Equal(runs[1:], want) {
						t.Fatalf("%dx%dx%d row %d: runs %v, want %v", nx, ny, nz, g, runs[1:], want)
					}
					for k, v := range vals {
						if (k == diag) != (v == 27) || (k != diag && v != -1) {
							t.Fatalf("%dx%dx%d row %d: diag %d, values %v", nx, ny, nz, g, diag, vals)
						}
					}
					for _, r := range want {
						longest = max(longest, r.N)
					}
				}
			}
		}
	}
	if longest != 27 {
		t.Errorf("longest run %d, want 27 (a 3x3 plane merged three deep)", longest)
	}
	buf := make([]ColRun, 0, 9)
	if n := testing.AllocsPerRun(10, func() { Stencil27RowRuns(5, 5, 5, 62, buf[:0]) }); n != 0 {
		t.Errorf("Stencil27RowRuns allocates %v times, want 0", n)
	}
}

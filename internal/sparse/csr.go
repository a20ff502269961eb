// Package sparse provides compressed-sparse-row matrices, the 27-point
// 3-D finite-difference stencil generator behind the paper's conjugate-
// gradient experiment, and SpMV kernels with flop accounting.
package sparse

import "fmt"

// CSR is a compressed-sparse-row matrix.
type CSR struct {
	Rows, Cols int
	RowPtr     []int // len Rows+1
	Col        []int // len NNZ
	Val        []float64
}

// NNZ returns the number of stored entries.
func (a *CSR) NNZ() int { return len(a.Col) }

// New returns an empty CSR with preallocated row pointers.
func New(rows, cols int) *CSR {
	return &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
}

// Validate checks structural invariants.
func (a *CSR) Validate() error {
	if len(a.RowPtr) != a.Rows+1 {
		return fmt.Errorf("sparse: RowPtr has %d entries for %d rows", len(a.RowPtr), a.Rows)
	}
	if a.RowPtr[0] != 0 || a.RowPtr[a.Rows] != len(a.Col) || len(a.Col) != len(a.Val) {
		return fmt.Errorf("sparse: inconsistent row pointers / value arrays")
	}
	for r := 0; r < a.Rows; r++ {
		if a.RowPtr[r] > a.RowPtr[r+1] {
			return fmt.Errorf("sparse: row %d has negative length", r)
		}
		for k := a.RowPtr[r]; k < a.RowPtr[r+1]; k++ {
			if a.Col[k] < 0 || a.Col[k] >= a.Cols {
				return fmt.Errorf("sparse: row %d references column %d of %d", r, a.Col[k], a.Cols)
			}
		}
	}
	return nil
}

// MulVec computes y = A x and returns the flops performed.
func (a *CSR) MulVec(y, x []float64) int64 {
	return a.MulVecRows(y, x, 0, a.Rows)
}

// MulVecRows computes y[lo:hi] = (A x)[lo:hi] for the row range [lo, hi)
// and returns the flops performed. y is indexed globally (y[r] for row r).
func (a *CSR) MulVecRows(y, x []float64, lo, hi int) int64 {
	var flops int64
	for r := lo; r < hi; r++ {
		var s float64
		for k := a.RowPtr[r]; k < a.RowPtr[r+1]; k++ {
			s += a.Val[k] * x[a.Col[k]]
		}
		y[r] = s
		flops += int64(2 * (a.RowPtr[r+1] - a.RowPtr[r]))
	}
	return flops
}

// RowNNZ returns the number of stored entries in rows [lo, hi).
func (a *CSR) RowNNZ(lo, hi int) int {
	return a.RowPtr[hi] - a.RowPtr[lo]
}

// IsSymmetric reports whether the matrix equals its transpose (O(nnz log)
// via per-row lookups; intended for tests).
func (a *CSR) IsSymmetric() bool {
	if a.Rows != a.Cols {
		return false
	}
	at := make(map[[2]int]float64, len(a.Col))
	for r := 0; r < a.Rows; r++ {
		for k := a.RowPtr[r]; k < a.RowPtr[r+1]; k++ {
			at[[2]int{r, a.Col[k]}] = a.Val[k]
		}
	}
	for r := 0; r < a.Rows; r++ {
		for k := a.RowPtr[r]; k < a.RowPtr[r+1]; k++ {
			if v, ok := at[[2]int{a.Col[k], r}]; !ok || v != a.Val[k] {
				return false
			}
		}
	}
	return true
}

// Stencil27Rows builds only rows [lo, hi) of the Stencil27 operator, with
// global column indices. The result has Rows = hi-lo; its row r
// corresponds to global row lo+r. Distributed solvers use it to build
// each owner's row block without materializing the whole matrix.
func Stencil27Rows(nx, ny, nz, lo, hi int) *CSR {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		panic(fmt.Sprintf("sparse: Stencil27Rows(%d, %d, %d): dimensions must be positive", nx, ny, nz))
	}
	n := nx * ny * nz
	if lo < 0 || hi > n || lo > hi {
		panic(fmt.Sprintf("sparse: Stencil27Rows: row range [%d,%d) out of [0,%d)", lo, hi, n))
	}
	a := New(hi-lo, n)
	// A row has at most 27 entries; sizing for that up front replaces a
	// doubling series that copies the arrays about twice over.
	cols := make([]int, 0, 27*(hi-lo))
	vals := make([]float64, 0, 27*(hi-lo))
	for g := lo; g < hi; g++ {
		x := g % nx
		y := (g / nx) % ny
		z := g / (nx * ny)
		for dz := -1; dz <= 1; dz++ {
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					xx, yy, zz := x+dx, y+dy, z+dz
					if xx < 0 || xx >= nx || yy < 0 || yy >= ny || zz < 0 || zz >= nz {
						continue
					}
					c := (zz*ny+yy)*nx + xx
					v := -1.0
					if c == g {
						v = 27.0
					}
					cols = append(cols, c)
					vals = append(vals, v)
				}
			}
		}
		a.RowPtr[g-lo+1] = len(cols)
	}
	a.Col = cols
	a.Val = vals
	return a
}

// Stencil27 builds the 27-point implicit finite-difference operator for a
// diffusion problem on an nx x ny x nz box ("chimney" domains elongate
// nz), with Dirichlet boundary truncation: every off-diagonal neighbor
// weight is -1 and the diagonal is 27, which makes the operator strictly
// diagonally dominant and hence symmetric positive definite.
func Stencil27(nx, ny, nz int) *CSR {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		panic(fmt.Sprintf("sparse: Stencil27(%d, %d, %d): dimensions must be positive", nx, ny, nz))
	}
	n := nx * ny * nz
	a := New(n, n)
	idx := func(x, y, z int) int { return (z*ny+y)*nx + x }
	// First pass: count entries per row.
	counts := make([]int, n)
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				c := 0
				for dz := -1; dz <= 1; dz++ {
					for dy := -1; dy <= 1; dy++ {
						for dx := -1; dx <= 1; dx++ {
							xx, yy, zz := x+dx, y+dy, z+dz
							if xx >= 0 && xx < nx && yy >= 0 && yy < ny && zz >= 0 && zz < nz {
								c++
							}
						}
					}
				}
				counts[idx(x, y, z)] = c
			}
		}
	}
	for r := 0; r < n; r++ {
		a.RowPtr[r+1] = a.RowPtr[r] + counts[r]
	}
	a.Col = make([]int, a.RowPtr[n])
	a.Val = make([]float64, a.RowPtr[n])
	// Second pass: fill (neighbors in lexicographic order, so columns are
	// sorted within each row).
	pos := make([]int, n)
	copy(pos, a.RowPtr[:n])
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				r := idx(x, y, z)
				for dz := -1; dz <= 1; dz++ {
					for dy := -1; dy <= 1; dy++ {
						for dx := -1; dx <= 1; dx++ {
							xx, yy, zz := x+dx, y+dy, z+dz
							if xx < 0 || xx >= nx || yy < 0 || yy >= ny || zz < 0 || zz >= nz {
								continue
							}
							c := idx(xx, yy, zz)
							v := -1.0
							if c == r {
								v = 27.0
							}
							a.Col[pos[r]] = c
							a.Val[pos[r]] = v
							pos[r]++
						}
					}
				}
			}
		}
	}
	return a
}

// ColRun is one maximal run of consecutive column indices within a row:
// columns Col, Col+1, ..., Col+N-1.
type ColRun struct {
	Col, N int
}

// Stencil27RowRuns appends row g of the Stencil27 operator on an
// nx x ny x nz grid to runs, generated from the grid rather than read
// from a stored matrix: the row's maximal runs of consecutive columns, in
// column order, and diag, the diagonal's position among the row's
// entries. Every other entry is -1 and the diagonal 27, so the runs and
// diag are the whole row. A row is at most nine x-direction runs of up to
// three columns; where they span a whole line (nx <= 3, or x at both
// edges) a plane's lines merge into one run, and where those span a whole
// plane too the planes merge, so a run is at most 27 columns. A gather
// reads each run with one block access.
func Stencil27RowRuns(nx, ny, nz, g int, runs []ColRun) ([]ColRun, int) {
	if g < 0 || g >= nx*ny*nz {
		panic(fmt.Sprintf("sparse: Stencil27RowRuns: row %d out of a %dx%dx%d grid", g, nx, ny, nz))
	}
	q := g / nx
	z := q / ny
	x, y := g-q*nx, q-z*ny
	x0, x1 := max(x-1, 0), min(x+1, nx-1)
	y0, y1 := max(y-1, 0), min(y+1, ny-1)
	z0, z1 := max(z-1, 0), min(z+1, nz-1)
	n, m := x1-x0+1, y1-y0+1
	diag := ((z-z0)*m+y-y0)*n + x - x0
	switch {
	case n < nx: // one run per line
		for zz := z0; zz <= z1; zz++ {
			for c := (zz*ny+y0)*nx + x0; c <= (zz*ny+y1)*nx+x0; c += nx {
				runs = append(runs, ColRun{Col: c, N: n})
			}
		}
	case m < ny: // whole lines: one run per plane
		for zz := z0; zz <= z1; zz++ {
			runs = append(runs, ColRun{Col: (zz*ny + y0) * nx, N: m * nx})
		}
	default: // whole planes: one run
		runs = append(runs, ColRun{Col: z0 * ny * nx, N: (z1 - z0 + 1) * ny * nx})
	}
	return runs, diag
}

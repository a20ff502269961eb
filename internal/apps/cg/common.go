// Package cg implements the paper's Application 1: a parallel linear
// solver for A x = b using the Conjugate Gradient method, where A is the
// 27-point implicit finite-difference operator of a diffusion problem on
// a 3-D chimney domain (the paper's run used 16,777,216 rows with ~400M
// nonzeros; the grid dimensions here are parameters).
//
// Three implementations share the same numerics:
//
//   - Solve: sequential reference.
//   - RunPPM: the PPM program — vectors in global shared memory, SpMV
//     generates each row of the operator from the grid (the model
//     charges the stored row it stands for) and reads the search
//     direction with fine-grained global indexing, and the runtime does
//     the bundling (this is why the PPM source is a
//     fraction of the message-passing version's size, Table 1).
//   - RunMPI: the "highly tuned" message-passing baseline — an explicit
//     communication plan (which remote vector entries each neighbor
//     needs), packed halo exchanges, remapped column indices, and
//     collective reductions; one rank per core.
package cg

import (
	"flag"
	"fmt"
	"math"

	"ppm/internal/apps/appflag"
	"ppm/internal/linalg"
	"ppm/internal/sparse"
)

type Params struct {
	NX, NY, NZ int     // grid dimensions (chimney: elongate NZ)
	MaxIter    int     // iteration cap
	Tol        float64 // relative residual target; 0 runs MaxIter iterations unless the residual reaches exactly 0
}

// N returns the number of unknowns.
func (p Params) N() int { return p.NX * p.NY * p.NZ }

// WithDefaults fills zero fields with the Figure 1 workload (a 24x24x48
// chimney, 20 iterations).
func (p Params) WithDefaults() Params {
	if p.NX == 0 && p.NY == 0 && p.NZ == 0 {
		p.NX, p.NY, p.NZ = 24, 24, 48
	}
	if p.MaxIter == 0 {
		p.MaxIter = 20
	}
	return p
}

// Validate reports the first parameter no run could use.
func (p Params) Validate() error {
	if err := appflag.CheckGrid("cg", p.NX, p.NY, p.NZ); err != nil {
		return err
	}
	if p.MaxIter <= 0 {
		return fmt.Errorf("cg: MaxIter must be positive, got %d", p.MaxIter)
	}
	return nil
}

// Flags binds p to its command-line flags on fs, defaulted as WithDefaults.
func (p *Params) Flags(fs *flag.FlagSet) {
	*p = p.WithDefaults()
	fs.Var(appflag.Grid{NX: &p.NX, NY: &p.NY, NZ: &p.NZ}, "cg-grid", "cg: grid NXxNYxNZ")
	fs.IntVar(&p.MaxIter, "cg-iters", p.MaxIter, "cg: iterations (tol=0)")
}

// Canonical is what a job hash covers: every field as a 64-bit word
// (floats as their bit pattern), in a fixed order.
func (p Params) Canonical() []uint64 {
	return []uint64{uint64(p.NX), uint64(p.NY), uint64(p.NZ), uint64(p.MaxIter), math.Float64bits(p.Tol)}
}

// Result carries the solver outcome.
type Result struct {
	X        []float64 // solution (on the caller; gathered from rank 0)
	Iters    int
	Residual float64 // final absolute 2-norm of the residual
}

// rhsRows returns b[lo:hi) for the manufactured problem: b = A * 1, so
// the exact solution is the all-ones vector and b's entries are row sums.
func rhsRows(a *sparse.CSR) []float64 {
	b := make([]float64, a.Rows)
	for r := 0; r < a.Rows; r++ {
		var s float64
		for k := a.RowPtr[r]; k < a.RowPtr[r+1]; k++ {
			s += a.Val[k]
		}
		b[r] = s
	}
	return b
}

// Solve runs sequential CG on the full operator: the reference the
// parallel versions are validated against.
func Solve(p Params) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	a := sparse.Stencil27(p.NX, p.NY, p.NZ)
	b := rhsRows(a)
	n := p.N()
	x := make([]float64, n)
	r := append([]float64(nil), b...)
	pv := append([]float64(nil), b...)
	w := make([]float64, n)
	normB, _ := linalg.Norm2(b)
	rs, _ := linalg.Dot(r, r)
	res := &Result{}
	for it := 0; it < p.MaxIter; it++ {
		a.MulVec(w, pv)
		pw, _ := linalg.Dot(pv, w)
		alpha := rs / pw
		linalg.Axpy(alpha, pv, x)
		linalg.Axpy(-alpha, w, r)
		rsNew, _ := linalg.Dot(r, r)
		res.Iters = it + 1
		res.Residual = math.Sqrt(rsNew)
		if rsNew == 0 || p.Tol > 0 && res.Residual <= p.Tol*normB {
			break
		}
		beta := rsNew / rs
		for i := range pv {
			pv[i] = r[i] + beta*pv[i]
		}
		rs = rsNew
	}
	res.X = x
	return res, nil
}

// RunPPM solves the problem with the Parallel Phase Model and returns the

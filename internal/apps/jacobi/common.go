// Package jacobi implements a structured counterpoint to the paper's
// three unstructured applications: 7-point Jacobi relaxation on a regular
// 3-D grid. The paper's introduction concedes that message passing "has
// been very successful in providing good application performance for
// structured (or regular) scientific applications"; this app exists to
// check that the reproduction's cost model honors that concession — the
// MPI version should be at least competitive here, unlike in Figures 1-3.
//
// The PPM version is also a showcase of phase semantics: Jacobi needs
// double buffering (all reads must see the previous sweep), and a global
// phase provides exactly that for free — the program reads and writes the
// same shared array in one phase.
package jacobi

import (
	"flag"
	"fmt"

	"ppm/internal/apps/appflag"
)

// Params describes one relaxation problem.
type Params struct {
	NX, NY, NZ int
	Sweeps     int
}

// N returns the number of grid points.
func (p Params) N() int { return p.NX * p.NY * p.NZ }

// WithDefaults fills zero fields with the Figure S1 workload (a 24x24x48
// grid, 10 sweeps).
func (p Params) WithDefaults() Params {
	if p.NX == 0 && p.NY == 0 && p.NZ == 0 {
		p.NX, p.NY, p.NZ = 24, 24, 48
	}
	if p.Sweeps == 0 {
		p.Sweeps = 10
	}
	return p
}

// Flags binds p to its command-line flags on fs, defaulted as WithDefaults.
func (p *Params) Flags(fs *flag.FlagSet) {
	*p = p.WithDefaults()
	fs.Var(appflag.Grid{NX: &p.NX, NY: &p.NY, NZ: &p.NZ}, "jacobi-grid", "jacobi: grid NXxNYxNZ")
	fs.IntVar(&p.Sweeps, "jacobi-sweeps", p.Sweeps, "jacobi: sweeps")
}

// Canonical is what a job hash covers: every field as a 64-bit word
// (floats as their bit pattern), in a fixed order.
func (p Params) Canonical() []uint64 {
	return []uint64{uint64(p.NX), uint64(p.NY), uint64(p.NZ), uint64(p.Sweeps)}
}

// Validate reports the first parameter no run could use.
func (p Params) Validate() error {
	if err := appflag.CheckGrid("jacobi", p.NX, p.NY, p.NZ); err != nil {
		return err
	}
	if p.Sweeps < 0 {
		return fmt.Errorf("jacobi: Sweeps must be non-negative, got %d", p.Sweeps)
	}
	return nil
}

// source is the fixed right-hand side: a deterministic bump pattern.
func (p Params) source(i int) float64 {
	x, y, z := i%p.NX, (i/p.NX)%p.NY, i/(p.NX*p.NY)
	return float64((x*3+y*5+z*7)%11) / 11
}

// relaxPoint computes one Jacobi update for point i from read access to
// the previous iterate. Shared by all implementations so results are
// bitwise identical.
func (p Params) relaxPoint(i int, read func(j int) float64) float64 {
	x, y, z := i%p.NX, (i/p.NX)%p.NY, i/(p.NX*p.NY)
	sum := p.source(i)
	if x > 0 {
		sum += read(i - 1)
	}
	if x < p.NX-1 {
		sum += read(i + 1)
	}
	if y > 0 {
		sum += read(i - p.NX)
	}
	if y < p.NY-1 {
		sum += read(i + p.NX)
	}
	if z > 0 {
		sum += read(i - p.NX*p.NY)
	}
	if z < p.NZ-1 {
		sum += read(i + p.NX*p.NY)
	}
	return sum / 7
}

// relaxFlops is the modeled cost of one point update.
const relaxFlops = 9

// Solve runs the sequential reference and returns the final grid.
func Solve(p Params) ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.N()
	u := make([]float64, n)
	next := make([]float64, n)
	for s := 0; s < p.Sweeps; s++ {
		for i := 0; i < n; i++ {
			next[i] = p.relaxPoint(i, func(j int) float64 { return u[j] })
		}
		u, next = next, u
	}
	return u, nil
}

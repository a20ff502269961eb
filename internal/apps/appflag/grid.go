// Package appflag holds what the grid applications (cg, jacobi) share
// about a grid: the flag.Value that parses it one way for every command
// that takes one, and the one check every grid is validated against.
package appflag

import (
	"fmt"
	"strconv"
	"strings"
)

// Grid is a flag.Value for three grid dimensions written NXxNYxNZ: three
// positive decimal integers and nothing else (no sign, no trailing text).
// It writes straight into the bound ints, which also supply the default.
type Grid struct{ NX, NY, NZ *int }

func (g Grid) String() string {
	if g.NX == nil { // the zero Value flag.PrintDefaults compares against
		return ""
	}
	return fmt.Sprintf("%dx%dx%d", *g.NX, *g.NY, *g.NZ)
}

func (g Grid) Set(s string) error {
	parts := strings.Split(s, "x")
	if len(parts) != 3 {
		return fmt.Errorf("grid must be NXxNYxNZ, got %q", s)
	}
	var dims [3]int
	for i, p := range parts {
		n, err := strconv.ParseUint(p, 10, 31)
		if err != nil || n == 0 {
			return fmt.Errorf("bad grid dimension %q in %q", p, s)
		}
		dims[i] = int(n)
	}
	*g.NX, *g.NY, *g.NZ = dims[0], dims[1], dims[2]
	return nil
}

// MaxGridPoints bounds a grid's points: 2^24, the size of the paper's CG
// run. A simulator job runs inside the process that serves it, so a grid
// past any bound would end that process out of memory rather than fail
// the job.
const MaxGridPoints = 1 << 24

// CheckGrid reports the grid no run of app can use: a dimension that is
// not positive, or more than MaxGridPoints points. The product is never
// formed, so dimensions whose product overflows an int are refused too.
func CheckGrid(app string, nx, ny, nz int) error {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		return fmt.Errorf("%s: grid %dx%dx%d invalid", app, nx, ny, nz)
	}
	if nx > MaxGridPoints || ny > MaxGridPoints/nx || nz > MaxGridPoints/(nx*ny) {
		return fmt.Errorf("%s: grid %dx%dx%d exceeds %d points", app, nx, ny, nz, MaxGridPoints)
	}
	return nil
}

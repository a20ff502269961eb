// Package appflag holds the flag.Value the grid applications (cg, jacobi)
// share, so a grid is parsed one way by every command that takes one.
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

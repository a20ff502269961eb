package appflag

import (
	"flag"
	"io"
	"testing"
)

func TestGridStrict(t *testing.T) {
	parse := func(arg string) (nx, ny, nz int, err error) {
		nx, ny, nz = 24, 24, 48
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fs.Var(Grid{&nx, &ny, &nz}, "grid", "")
		err = fs.Parse([]string{"-grid", arg})
		return
	}
	if nx, ny, nz, err := parse("10x6x4"); err != nil || nx != 10 || ny != 6 || nz != 4 {
		t.Fatalf("10x6x4 parsed as %dx%dx%d, err %v", nx, ny, nz, err)
	}
	for _, bad := range []string{
		"8x8x8junk", "10x6x4.5", "0x0x0", "-4x4x4", "+4x4x4", "8x8", "8x8x8x8",
		"8x8x", "x8x8", "8 x8x8", "8X8X8", "", "axbxc", "8x8x99999999999",
	} {
		if nx, ny, nz, err := parse(bad); err == nil {
			t.Errorf("%q accepted as %dx%dx%d", bad, nx, ny, nz)
		} else if nx != 24 || ny != 24 || nz != 48 {
			t.Errorf("%q refused but left %dx%dx%d behind", bad, nx, ny, nz)
		}
	}
	// The bound ints are the default, and what -h shows.
	nx, ny, nz := 24, 24, 48
	if got := (Grid{&nx, &ny, &nz}).String(); got != "24x24x48" {
		t.Errorf("String() = %q", got)
	}
	if got := (Grid{}).String(); got != "" {
		t.Errorf("zero Grid String() = %q", got)
	}
}

// A grid is refused past MaxGridPoints points, and a product that would
// overflow an int (and wrap to a small or zero size) is refused too.
func TestCheckGrid(t *testing.T) {
	for _, g := range []struct {
		nx, ny, nz int
		ok         bool
	}{
		{24, 24, 48, true},
		{4096, 4096, 1, true},
		{1, 1, MaxGridPoints, true},
		{4096, 4096, 2, false},
		{MaxGridPoints + 1, 1, 1, false},
		{1 << 22, 1 << 22, 1 << 22, false}, // product wraps to 0
		{1 << 21, 1 << 21, 3, false},
		{0, 4, 4, false},
		{4, 4, -4, false},
	} {
		if err := CheckGrid("app", g.nx, g.ny, g.nz); (err == nil) != g.ok {
			t.Errorf("%dx%dx%d: CheckGrid = %v, want ok %v", g.nx, g.ny, g.nz, err, g.ok)
		}
	}
}

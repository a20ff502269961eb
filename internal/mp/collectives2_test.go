package mp

import (
	"fmt"
	"reflect"
	"testing"
)

// TestAllgatherDirectMatchesRing: the one-round allgather returns what
// the ring returns, at every size from one rank to five.
func TestAllgatherDirectMatchesRing(t *testing.T) {
	for p := 1; p <= 5; p++ {
		runAll(t, p, func(c *Comm) {
			local := []int64{int64(c.Rank()), int64(-10 * c.Rank()), 7}
			got := AllgatherDirect(c, local)
			want := Allgather(c, local)
			if !reflect.DeepEqual(got, want) {
				panic(fmt.Sprintf("p=%d rank %d: direct allgather %v, ring %v", p, c.Rank(), got, want))
			}
		})
	}
}

// TestAllgatherDirectBackToBack runs two direct allgathers in a row while
// the last rank lingers between them: every other rank finishes the first
// and sends its piece of the second before the last rank has started it.
// The generation in the tag keeps the two calls' messages apart, so each
// call returns its own pieces.
func TestAllgatherDirectBackToBack(t *testing.T) {
	for p := 2; p <= 5; p++ {
		runAll(t, p, func(c *Comm) {
			first := AllgatherDirect(c, []int{c.Rank()})
			if c.Rank() == p-1 {
				c.Proc().ChargeFlops(1 << 20)
			}
			second := AllgatherDirect(c, []int{100 + c.Rank()})
			for r := 0; r < p; r++ {
				if first[r] != r || second[r] != 100+r {
					panic(fmt.Sprintf("p=%d rank %d: first %v, second %v", p, c.Rank(), first, second))
				}
			}
		})
	}
}

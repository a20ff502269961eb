package mp

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ppm/internal/cluster"
	"ppm/internal/machine"
)

func TestScattervAllSizes(t *testing.T) {
	for _, p := range sizes {
		root := p / 3
		runAll(t, p, func(c *Comm) {
			counts := make([]int, p)
			var data []int64
			if c.Rank() == root {
				for r := 0; r < p; r++ {
					counts[r] = r%2 + 1
					for i := 0; i < counts[r]; i++ {
						data = append(data, int64(r*100+i))
					}
				}
			} else {
				for r := 0; r < p; r++ {
					counts[r] = r%2 + 1
				}
			}
			got := Scatterv(c, root, data, counts)
			want := make([]int64, counts[c.Rank()])
			for i := range want {
				want[i] = int64(c.Rank()*100 + i)
			}
			if !reflect.DeepEqual(got, want) {
				panic(fmt.Sprintf("rank %d: scatterv got %v want %v", c.Rank(), got, want))
			}
		})
	}
}

func TestScatterFixed(t *testing.T) {
	for _, p := range sizes {
		runAll(t, p, func(c *Comm) {
			var data []float64
			if c.Rank() == 0 {
				for i := 0; i < 3*p; i++ {
					data = append(data, float64(i))
				}
			}
			got := Scatter(c, 0, data)
			if len(got) != 3 {
				panic(fmt.Sprintf("rank %d got %d elements", c.Rank(), len(got)))
			}
			for i, v := range got {
				if v != float64(3*c.Rank()+i) {
					panic(fmt.Sprintf("rank %d: got[%d] = %v", c.Rank(), i, v))
				}
			}
		})
	}
}

func TestScatterIndivisiblePanics(t *testing.T) {
	_, err := cluster.Run(cluster.Config{Procs: 3, ProcsPerNode: 1, Machine: machine.Generic()},
		func(proc *cluster.Proc) {
			c := New(proc)
			var data []int64
			if c.Rank() == 0 {
				data = make([]int64, 4) // 4 % 3 != 0
			}
			Scatter(c, 0, data)
		})
	if err == nil || !strings.Contains(err.Error(), "not divisible") {
		t.Errorf("expected divisibility error, got %v", err)
	}
}

func TestGathervScattervRoundTrip(t *testing.T) {
	runAll(t, 5, func(c *Comm) {
		counts := []int{2, 1, 3, 1, 2}
		mine := make([]int, counts[c.Rank()])
		for i := range mine {
			mine[i] = c.Rank()*10 + i
		}
		full := Gatherv(c, 0, mine, counts)
		back := Scatterv(c, 0, full, counts)
		if !reflect.DeepEqual(back, mine) {
			panic(fmt.Sprintf("rank %d: round trip %v != %v", c.Rank(), back, mine))
		}
	})
}

func TestReduceScatter(t *testing.T) {
	for _, p := range sizes {
		runAll(t, p, func(c *Comm) {
			// counts: one element per rank from a vector of length p.
			counts := make([]int, p)
			for i := range counts {
				counts[i] = 1
			}
			data := make([]int64, p)
			for i := range data {
				data[i] = int64(c.Rank() + i)
			}
			got := ReduceScatter(c, data, counts, func(a, b int64) int64 { return a + b })
			// sum over ranks of (rank + i) at i = my rank.
			want := int64(p*(p-1)/2 + p*c.Rank())
			if len(got) != 1 || got[0] != want {
				panic(fmt.Sprintf("rank %d: reduce-scatter got %v want %d", c.Rank(), got, want))
			}
		})
	}
}

func TestScanSum(t *testing.T) {
	for _, p := range sizes {
		runAll(t, p, func(c *Comm) {
			got := ScanSum(c, []int64{int64(c.Rank() + 1), 1})
			r := int64(c.Rank())
			if got[0] != (r+1)*(r+2)/2 || got[1] != r+1 {
				panic(fmt.Sprintf("rank %d: scan got %v", c.Rank(), got))
			}
		})
	}
}

func TestScattervBadCountsPanics(t *testing.T) {
	_, err := cluster.Run(cluster.Config{Procs: 2, ProcsPerNode: 1, Machine: machine.Generic()},
		func(proc *cluster.Proc) {
			c := New(proc)
			Scatterv(c, 0, []int64{1}, []int{1}) // counts too short
		})
	if err == nil || !strings.Contains(err.Error(), "counts has") {
		t.Errorf("expected counts error, got %v", err)
	}
}

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

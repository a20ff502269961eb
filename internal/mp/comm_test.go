package mp

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"ppm/internal/cluster"
	"ppm/internal/machine"
	"ppm/internal/rng"
)

// runAll executes body on a P-rank cluster (2 ranks per node to exercise
// both intra- and inter-node paths) and fails the test on any error.
func runAll(t *testing.T, p int, body func(c *Comm)) *cluster.Report {
	t.Helper()
	perNode := 2
	if p < 2 {
		perNode = 1
	}
	rep, err := cluster.Run(cluster.Config{Procs: p, ProcsPerNode: perNode, Machine: machine.Generic()},
		func(proc *cluster.Proc) { body(New(proc)) })
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

var sizes = []int{1, 2, 3, 4, 5, 7, 8, 13, 16}

func sumF64(a, b float64) float64 { return a + b }
func maxF64(a, b float64) float64 { return math.Max(a, b) }
func sumInt(a, b int) int         { return a + b }

func TestSendRecvTyped(t *testing.T) {
	runAll(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			Send(c, 1, 3, []float64{1.5, 2.5})
		} else {
			got := Recv[float64](c, 0, 3)
			if !reflect.DeepEqual(got, []float64{1.5, 2.5}) {
				panic(fmt.Sprint("bad payload ", got))
			}
		}
	})
}

func TestRecvTypeMismatchPanics(t *testing.T) {
	_, err := cluster.Run(cluster.Config{Procs: 2, ProcsPerNode: 1, Machine: machine.Generic()},
		func(p *cluster.Proc) {
			c := New(p)
			if c.Rank() == 0 {
				Send(c, 1, 0, []float64{1})
			} else {
				Recv[int](c, 0, 0)
			}
		})
	if err == nil || !strings.Contains(err.Error(), "payload is") {
		t.Errorf("expected type-mismatch panic, got %v", err)
	}
}

func TestUserTagRangeEnforced(t *testing.T) {
	_, err := cluster.Run(cluster.Config{Procs: 1, ProcsPerNode: 1, Machine: machine.Generic()},
		func(p *cluster.Proc) { Send(New(p), 0, tagReserved, []int{1}) })
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("expected tag-range panic, got %v", err)
	}
}

func TestBarrierAllSizes(t *testing.T) {
	for _, p := range sizes {
		runAll(t, p, func(c *Comm) {
			for i := 0; i < 3; i++ {
				c.Barrier()
			}
		})
	}
}

func TestBcastAllSizesAllRoots(t *testing.T) {
	for _, p := range sizes {
		for root := 0; root < p; root += (p+2)/3 + 1 {
			want := []float64{3.14, 2.71, float64(root)}
			runAll(t, p, func(c *Comm) {
				var buf []float64
				if c.Rank() == root {
					buf = want
				}
				got := Bcast(c, root, buf)
				if !reflect.DeepEqual(got, want) {
					panic(fmt.Sprintf("rank %d bcast got %v", c.Rank(), got))
				}
			})
		}
	}
}

func TestAllreduceSumAndMax(t *testing.T) {
	for _, p := range sizes {
		runAll(t, p, func(c *Comm) {
			got := Allreduce(c, []float64{float64(c.Rank()), -float64(c.Rank())}, sumF64)
			wantSum := float64(p*(p-1)) / 2
			if got[0] != wantSum || got[1] != -wantSum {
				panic(fmt.Sprintf("rank %d allreduce sum got %v want %v", c.Rank(), got, wantSum))
			}
			gotMax := Allreduce(c, []float64{float64(c.Rank())}, maxF64)
			if gotMax[0] != float64(p-1) {
				panic(fmt.Sprintf("allreduce max got %v", gotMax))
			}
		})
	}
}

// Property: Allreduce(sum) equals the sequential fold for random vectors,
// on awkward (non-power-of-two) rank counts.
func TestAllreduceMatchesSequentialProperty(t *testing.T) {
	f := func(seed uint64, pRaw uint8, nRaw uint8) bool {
		p := int(pRaw%9) + 1
		n := int(nRaw%17) + 1
		r := rng.New(seed)
		inputs := make([][]float64, p)
		want := make([]float64, n)
		for rk := 0; rk < p; rk++ {
			inputs[rk] = make([]float64, n)
			for i := range inputs[rk] {
				inputs[rk][i] = math.Floor(r.Float64()*1000) / 8 // exact in binary
				want[i] += inputs[rk][i]
			}
		}
		ok := true
		_, err := cluster.Run(cluster.Config{Procs: p, ProcsPerNode: 2, Machine: machine.Generic()},
			func(proc *cluster.Proc) {
				c := New(proc)
				got := Allreduce(c, inputs[c.Rank()], sumF64)
				for i := range got {
					if math.Abs(got[i]-want[i]) > 1e-9 {
						ok = false
					}
				}
			})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestGatherv(t *testing.T) {
	for _, p := range sizes {
		root := p - 1
		runAll(t, p, func(c *Comm) {
			counts := make([]int, p)
			for i := range counts {
				counts[i] = i + 1
			}
			local := make([]int, c.Rank()+1)
			for i := range local {
				local[i] = c.Rank()*100 + i
			}
			got := Gatherv(c, root, local, counts)
			if c.Rank() != root {
				if got != nil {
					panic("non-root gatherv result")
				}
				return
			}
			idx := 0
			for r := 0; r < p; r++ {
				for i := 0; i <= r; i++ {
					if got[idx] != r*100+i {
						panic(fmt.Sprintf("gatherv[%d] = %d", idx, got[idx]))
					}
					idx++
				}
			}
		})
	}
}

func TestAllgathervAllSizes(t *testing.T) {
	for _, p := range sizes {
		runAll(t, p, func(c *Comm) {
			counts := make([]int, p)
			for i := range counts {
				counts[i] = (i % 3) + 1
			}
			local := make([]int64, counts[c.Rank()])
			for i := range local {
				local[i] = int64(c.Rank()*1000 + i)
			}
			got := Allgatherv(c, local, counts)
			idx := 0
			for r := 0; r < p; r++ {
				for i := 0; i < counts[r]; i++ {
					if got[idx] != int64(r*1000+i) {
						panic(fmt.Sprintf("rank %d: allgatherv[%d] = %d", c.Rank(), idx, got[idx]))
					}
					idx++
				}
			}
		})
	}
}

func TestAllgatherFixed(t *testing.T) {
	runAll(t, 5, func(c *Comm) {
		got := Allgather(c, []int{c.Rank(), -c.Rank()})
		want := []int{0, 0, 1, -1, 2, -2, 3, -3, 4, -4}
		if !reflect.DeepEqual(got, want) {
			panic(fmt.Sprintf("allgather got %v", got))
		}
	})
}

func TestAlltoallv(t *testing.T) {
	for _, p := range sizes {
		runAll(t, p, func(c *Comm) {
			send := make([][]int, p)
			for dst := range send {
				// rank r sends [r, dst, r*dst] to dst; empty to self+1 mod p
				if dst == (c.Rank()+1)%p && p > 1 {
					continue
				}
				send[dst] = []int{c.Rank(), dst, c.Rank() * dst}
			}
			recv := Alltoallv(c, send)
			for src := 0; src < p; src++ {
				if c.Rank() == (src+1)%p && p > 1 {
					if len(recv[src]) != 0 {
						panic("expected empty piece")
					}
					continue
				}
				want := []int{src, c.Rank(), src * c.Rank()}
				if !reflect.DeepEqual(recv[src], want) {
					panic(fmt.Sprintf("rank %d from %d: got %v want %v", c.Rank(), src, recv[src], want))
				}
			}
		})
	}
}

func TestExscanSumInt(t *testing.T) {
	for _, p := range sizes {
		runAll(t, p, func(c *Comm) {
			got := ExscanSumInt(c, c.Rank()+1) // values 1..p
			want := c.Rank() * (c.Rank() + 1) / 2
			if got != want {
				panic(fmt.Sprintf("rank %d exscan got %d want %d", c.Rank(), got, want))
			}
		})
	}
}

func TestCollectivesBackToBackDoNotCrosstalk(t *testing.T) {
	runAll(t, 6, func(c *Comm) {
		for i := 0; i < 5; i++ {
			s := Allreduce(c, []int{1}, sumInt)
			if s[0] != 6 {
				panic("allreduce crosstalk")
			}
			b := Bcast(c, i%6, []int{i * 7})
			if b[0] != i*7 {
				panic("bcast crosstalk")
			}
			c.Barrier()
		}
	})
}

func TestCollectiveCostGrowsWithRanks(t *testing.T) {
	cost := func(p int) float64 {
		rep, err := cluster.Run(cluster.Config{Procs: p, ProcsPerNode: 4, Machine: machine.Franklin()},
			func(proc *cluster.Proc) {
				c := New(proc)
				data := make([]float64, 1024)
				for i := 0; i < 10; i++ {
					Allreduce(c, data, sumF64)
				}
			})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Makespan.Seconds()
	}
	if !(cost(4) < cost(16) && cost(16) < cost(64)) {
		t.Error("allreduce cost should grow with rank count")
	}
}

func TestReduceDeterministicOrder(t *testing.T) {
	// Floating-point reduce order is fixed: two runs give bitwise-equal
	// results even with values whose sum depends on association order.
	run := func() float64 {
		var out float64
		runAll(t, 7, func(c *Comm) {
			v := []float64{1e-16, 1, -1, 3e16, 7, -3e16, 1e-16}[c.Rank()]
			got := Allreduce(c, []float64{v}, sumF64)
			out = got[0]
		})
		return out
	}
	if a, b := run(), run(); a != b {
		t.Errorf("reduce order nondeterministic: %v vs %v", a, b)
	}
}

// TagGen inverts collTag's generation for every collective and round the
// collectives use, and refuses user tags.
func TestTagGen(t *testing.T) {
	for _, gen := range []int{0, 1, 2, 1000, 1 << 20} {
		for coll := collBarrier; coll <= collAllgatherDirect; coll++ {
			for _, round := range []int{0, 1, 99, 1022} {
				if got, ok := TagGen(collTag(coll, gen, round)); !ok || got != gen {
					t.Errorf("TagGen(collTag(%d, %d, %d)) = %d, %v", coll, gen, round, got, ok)
				}
			}
		}
	}
	for _, tag := range []int{0, 7, tagReserved - 1} {
		if _, ok := TagGen(tag); ok {
			t.Errorf("user tag %d has a generation", tag)
		}
	}
}

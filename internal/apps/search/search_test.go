package search

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"ppm/internal/core"
	"ppm/internal/machine"
	"ppm/internal/partition"
	"ppm/internal/rng"
)

// makeArray is the sequential reference for A: the whole array, drawn
// and summed in one pass.
func makeArray(p Params) []float64 {
	r := rng.New(p.Seed)
	a := make([]float64, p.N)
	v := 0.0
	for i := range a {
		v += r.Float64() + 1e-9
		a[i] = v
	}
	return a
}

// Each node's partition, filled on its own, holds the sequential
// array's bits, for every block partition of N = 1000 over 1-7 nodes
// and of N = 3, which leaves partitions empty.
func TestFillArrayMatchesMakeArray(t *testing.T) {
	for _, n := range []int{1000, 3} {
		p := Params{N: n, K: 1, Seed: 42}
		want := makeArray(p)
		for nodes := 1; nodes <= 7; nodes++ {
			part := partition.NewBlock(n, nodes)
			for node := range nodes {
				lo, hi := part.Range(node)
				got := make([]float64, hi-lo)
				FillArray(p, lo, got)
				for i, v := range got {
					if math.Float64bits(v) != math.Float64bits(want[lo+i]) {
						t.Fatalf("N=%d nodes=%d node %d: element %d is %v, want %v", n, nodes, node, lo+i, v, want[lo+i])
					}
				}
			}
		}
	}
}

func TestValidation(t *testing.T) {
	if _, _, err := RunPPM(core.Options{Nodes: 1, Machine: machine.Generic()}, Params{N: 0, K: 1}); err == nil {
		t.Error("N=0 accepted")
	}
	if _, _, err := RunPPM(core.Options{Nodes: 1, Machine: machine.Generic()}, Params{N: 1, K: 0}); err == nil {
		t.Error("K=0 accepted")
	}
}

func TestArraySortedAndDeterministic(t *testing.T) {
	p := Params{N: 500, K: 10, Seed: 3}
	a, b := make([]float64, p.N), make([]float64, p.N)
	FillArray(p, 0, a)
	if !sort.Float64sAreSorted(a) {
		t.Fatal("array not sorted")
	}
	FillArray(p, 0, b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("FillArray nondeterministic")
		}
	}
	k1, k2 := MakeKeys(p, 2), MakeKeys(p, 2)
	for i := range k1 {
		if k1[i] != k2[i] {
			t.Fatal("MakeKeys nondeterministic")
		}
	}
	if MakeKeys(p, 0)[0] == MakeKeys(p, 1)[0] {
		t.Error("different nodes should draw different keys")
	}
}

func TestRanksMatchSequential(t *testing.T) {
	p := Params{N: 2048, K: 64, Seed: 11}
	for _, nodes := range []int{1, 2, 4} {
		ranks, rep, err := RunPPM(core.Options{Nodes: nodes, Machine: machine.Generic()}, p)
		if err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
		a := makeArray(p)
		for node := 0; node < nodes; node++ {
			keys := MakeKeys(p, node)
			for i, key := range keys {
				want := int64(RankSeq(a, key))
				if ranks[node][i] != want {
					t.Fatalf("nodes=%d node=%d key %d: rank %d, want %d",
						nodes, node, i, ranks[node][i], want)
				}
			}
		}
		if nodes > 1 && rep.Totals.RemoteReadElems == 0 {
			t.Errorf("nodes=%d: binary search did no remote reads", nodes)
		}
	}
}

// Property: ranks returned are valid insertion points.
func TestRankIsInsertionPointProperty(t *testing.T) {
	f := func(seed uint64) bool {
		p := Params{N: 257, K: 16, Seed: seed}
		ranks, _, err := RunPPM(core.Options{Nodes: 3, Machine: machine.Generic()}, p)
		if err != nil {
			return false
		}
		a := makeArray(p)
		for node := 0; node < 3; node++ {
			keys := MakeKeys(p, node)
			for i, key := range keys {
				r := int(ranks[node][i])
				if r < 0 || r > p.N {
					return false
				}
				if r > 0 && a[r-1] >= key {
					return false
				}
				if r < p.N && a[r] < key {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

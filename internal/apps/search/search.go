// Package search implements the paper's Section 5 worked example: given a
// sorted globally shared array A and a node-shared array B, find for each
// element of B its insertion rank in A by parallel binary search — one
// virtual processor per element of B, all searching inside one global
// phase. (The paper notes this is not an optimal parallel algorithm; it
// exists to show the programming model, and here also to exercise a
// latency-chain access pattern the bundler cannot fully hide.)
package search

import (
	"flag"
	"fmt"
	"sort"

	"ppm/internal/core"
	"ppm/internal/rng"
)

// Params describes one search workload.
type Params struct {
	N    int    // sorted global array length
	K    int    // keys per node
	Seed uint64 // workload seed
}

// WithDefaults fills zero fields with the Section 5 workload (2^14 keys
// per node in an array of 2^20, seed 42).
func (p Params) WithDefaults() Params {
	if p.N == 0 {
		p.N = 1 << 20
	}
	if p.K == 0 {
		p.K = 1 << 14
	}
	if p.Seed == 0 {
		p.Seed = 42
	}
	return p
}

// Flags binds p to its command-line flags on fs, defaulted as WithDefaults.
func (p *Params) Flags(fs *flag.FlagSet) {
	*p = p.WithDefaults()
	fs.IntVar(&p.N, "search-n", p.N, "search: sorted array length")
	fs.IntVar(&p.K, "search-k", p.K, "search: keys per node")
}

// Canonical is what a job hash covers: every field as a 64-bit word
// (floats as their bit pattern), in a fixed order.
func (p Params) Canonical() []uint64 { return []uint64{uint64(p.N), uint64(p.K), p.Seed} }

// MaxN and MaxK bound the sorted array and each node's key set. A
// simulator job runs inside the process that serves it, so a size past
// any bound would end that process out of memory rather than fail the
// job; these are far above every size the repo runs.
const (
	MaxN = 1 << 24
	MaxK = 1 << 20
)

// Validate reports the first parameter no run could use.
func (p Params) Validate() error {
	if p.N <= 0 || p.K <= 0 {
		return fmt.Errorf("search: N and K must be positive, got %d, %d", p.N, p.K)
	}
	if p.N > MaxN || p.K > MaxK {
		return fmt.Errorf("search: N and K must be at most %d and %d, got %d, %d", MaxN, MaxK, p.N, p.K)
	}
	return nil
}

// FillArray writes elements lo to lo+len(dst)-1 of the sorted array A
// (deterministic in the seed) into dst. A is a running sum of draws from
// the seed's generator, so the elements before lo are drawn and summed
// too, but only dst's are stored.
func FillArray(p Params, lo int, dst []float64) {
	if len(dst) == 0 {
		return
	}
	r := rng.New(p.Seed)
	v := 0.0
	for range lo {
		v += r.Float64() + 1e-9
	}
	for i := range dst {
		v += r.Float64() + 1e-9
		dst[i] = v
	}
}

// MakeKeys returns node `node`'s key set B.
func MakeKeys(p Params, node int) []float64 {
	r := rng.New(p.Seed).Split(uint64(node) + 1)
	limit := float64(p.N)
	keys := make([]float64, p.K)
	for i := range keys {
		keys[i] = r.Float64() * limit
	}
	return keys
}

// RankSeq is the sequential reference: the insertion rank of key in a.
func RankSeq(a []float64, key float64) int {
	return sort.SearchFloat64s(a, key)
}

// RunPPM runs the paper's listing: per node, K virtual processors each
// binary-search one element of the node-shared B inside global shared A,
// writing the result rank into the node-shared rank array. It returns the
// per-node rank arrays.
func RunPPM(opt core.Options, p Params) ([][]int64, *core.Report, error) {
	return RunPPMOn(core.Run, opt, p)
}

// RunPPMOn executes the same PPM program under any core.Runner — the
// simulator (core.Run) or one process of a distributed run (which fills
// only its own node's rank slice).
func RunPPMOn(run core.Runner, opt core.Options, p Params) ([][]int64, *core.Report, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	out := make([][]int64, opt.Nodes)
	rep, err := run(opt, func(rt *core.Runtime) {
		A := core.AllocGlobal[float64](rt, "A", p.N)
		B := core.AllocNode[float64](rt, "B", p.K)
		rankInA := core.AllocNode[int64](rt, "rank_in_A", p.K)

		// Node-level initialization (A's partition, this node's keys).
		lo, hi := A.OwnerRange(rt)
		FillArray(p, lo, A.Local(rt))
		rt.ChargeMem(int64(8 * (hi - lo)))
		copy(B.Local(rt), MakeKeys(p, rt.NodeID()))
		rt.ChargeMem(int64(8 * p.K))

		// The listing: PPM_do(K) binary_search(n, A, B, rank_in_A).
		rt.Do(p.K, func(vp *core.VP) {
			vp.GlobalPhase(func() {
				b := B.Read(vp, vp.NodeRank())
				left, right := -1, p.N
				for left+1 < right {
					middle := (left + right) / 2
					if A.Read(vp, middle) < b {
						left = middle
					} else {
						right = middle
					}
				}
				rankInA.Write(vp, vp.NodeRank(), int64(right))
				vp.ChargeFlops(int64(2 * bits(p.N)))
			})
		})

		out[rt.NodeID()] = append([]int64(nil), rankInA.Local(rt)...)
	})
	if err != nil {
		return nil, rep, err
	}
	return out, rep, nil
}

func bits(n int) int {
	b := 0
	for n > 0 {
		n >>= 1
		b++
	}
	return b
}

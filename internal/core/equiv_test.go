package core

import (
	"testing"
	"testing/quick"

	"ppm/internal/machine"
	"ppm/internal/rng"
)

// The block accessors (ReadBlock/WriteBlock/AddBlock) are pure fast
// paths: a program that replaces element-wise loops with block calls
// over the same ranges must be indistinguishable in every modeled
// respect — committed shared state, the values reads observe, virtual
// time, and all runtime counters (including bundle counts and the
// remote-read dedup statistics). This property test generates random
// phase programs and runs each twice, once element-wise and once
// through the block calls, under several Options variants.

// equivOp is one shared-array access a VP performs inside a phase.
type equivOp struct {
	kind   int // 0 read, 1 write, 2 add
	onNode bool
	lo, hi int
}

// equivProgram is a full random program: op lists per phase, node and
// VP rank, plus the shapes needed to build it.
type equivProgram struct {
	nodes, k, phases int
	gn, nn           int
	ops              [][][][]equivOp // [phase][node][rank][]
}

func genEquivProgram(seed uint64) equivProgram {
	r := rng.New(seed)
	p := equivProgram{
		nodes:  1 + r.Intn(3),
		k:      1 + r.Intn(4),
		phases: 1 + r.Intn(3),
		gn:     16 + r.Intn(33),
		nn:     8 + r.Intn(9),
	}
	p.ops = make([][][][]equivOp, p.phases)
	for ph := range p.ops {
		nodePhase := ph%2 == 1
		p.ops[ph] = make([][][]equivOp, p.nodes)
		for nd := range p.ops[ph] {
			p.ops[ph][nd] = make([][]equivOp, p.k)
			for rank := range p.ops[ph][nd] {
				nops := 1 + r.Intn(4)
				list := make([]equivOp, nops)
				for o := range list {
					op := equivOp{kind: r.Intn(3)}
					// Node phases reject remote global access, so
					// they exercise the node array only.
					op.onNode = nodePhase || r.Intn(2) == 1
					n := p.gn
					if op.onNode {
						n = p.nn
					}
					op.lo = r.Intn(n)
					op.hi = op.lo + r.Intn(7)
					if op.hi > n {
						op.hi = n
					}
					list[o] = op
				}
				p.ops[ph][nd][rank] = list
			}
		}
	}
	return p
}

// equivVal is the deterministic value op o of (phase, node, rank)
// writes at element i: both program variants write identical data.
func equivVal(ph, nd, rank, o, i int) float64 {
	return float64((ph*1000003+nd*10007+rank*101+o*13+i*7)%997) * 0.5
}

// equivOutcome captures everything observable about one run.
type equivOutcome struct {
	global []float64
	node   [][]float64
	sums   [][]float64 // per (node, rank): checksum of all values read
	totals NodeStats
	span   float64
}

func runEquivProgram(t *testing.T, p equivProgram, o Options, block bool) equivOutcome {
	t.Helper()
	out := equivOutcome{
		global: make([]float64, p.gn),
		node:   make([][]float64, p.nodes),
		sums:   make([][]float64, p.nodes),
	}
	for nd := range out.sums {
		out.sums[nd] = make([]float64, p.k)
	}
	rep := mustRun(t, o, func(rt *Runtime) {
		me := rt.NodeID()
		g := AllocGlobal[float64](rt, "eq.g", p.gn)
		na := AllocNode[float64](rt, "eq.n", p.nn)
		rt.Do(p.k, func(vp *VP) {
			rank := vp.NodeRank()
			buf := make([]float64, 8)
			run := func(ph int) {
				for o, op := range p.ops[ph][me][rank] {
					lo, hi := op.lo, op.hi
					switch {
					case op.kind == 0 && block:
						if op.onNode {
							na.ReadBlock(vp, lo, hi, buf[:hi-lo])
						} else {
							g.ReadBlock(vp, lo, hi, buf[:hi-lo])
						}
						for j := 0; j < hi-lo; j++ {
							out.sums[me][rank] += buf[j]
						}
					case op.kind == 0:
						for i := lo; i < hi; i++ {
							if op.onNode {
								out.sums[me][rank] += na.Read(vp, i)
							} else {
								out.sums[me][rank] += g.Read(vp, i)
							}
						}
					case block:
						src := buf[:hi-lo]
						for i := lo; i < hi; i++ {
							src[i-lo] = equivVal(ph, me, rank, o, i)
						}
						switch {
						case op.kind == 1 && op.onNode:
							na.WriteBlock(vp, lo, src)
						case op.kind == 1:
							g.WriteBlock(vp, lo, src)
						case op.onNode:
							na.AddBlock(vp, lo, src)
						default:
							g.AddBlock(vp, lo, src)
						}
					default:
						for i := lo; i < hi; i++ {
							v := equivVal(ph, me, rank, o, i)
							switch {
							case op.kind == 1 && op.onNode:
								na.Write(vp, i, v)
							case op.kind == 1:
								g.Write(vp, i, v)
							case op.onNode:
								na.Add(vp, i, v)
							default:
								g.Add(vp, i, v)
							}
						}
					}
				}
			}
			for ph := 0; ph < p.phases; ph++ {
				if ph%2 == 1 {
					vp.NodePhase(func() { run(ph) })
				} else {
					vp.GlobalPhase(func() { run(ph) })
				}
			}
		})
		glo, _ := g.OwnerRange(rt)
		copy(out.global[glo:], g.Local(rt))
		out.node[me] = append([]float64(nil), na.Local(rt)...)
		rt.Barrier()
	})
	out.totals = rep.Totals
	out.span = float64(rep.Makespan())
	return out
}

func equalEquivOutcome(a, b equivOutcome) bool {
	// The plan-cache counters are host-side memoization bookkeeping:
	// scalar and block access forms legitimately record different plan
	// shapes, so they are outside the equivalence surface.
	if a.totals.Program() != b.totals.Program() || a.span != b.span {
		return false
	}
	for i := range a.global {
		if a.global[i] != b.global[i] {
			return false
		}
	}
	for nd := range a.node {
		for i := range a.node[nd] {
			if a.node[nd][i] != b.node[nd][i] {
				return false
			}
		}
		for r := range a.sums[nd] {
			if a.sums[nd][r] != b.sums[nd][r] {
				return false
			}
		}
	}
	return true
}

func TestBlockElementwiseEquivalence(t *testing.T) {
	variants := []struct {
		name string
		mod  func(*Options)
	}{
		{"default", func(o *Options) {}},
		{"noreadcache", func(o *Options) { o.NoReadCache = true }},
		{"nobundling", func(o *Options) { o.NoBundling = true }},
		{"static", func(o *Options) { o.StaticSchedule = true }},
	}
	prop := func(seed uint64) bool {
		p := genEquivProgram(seed)
		for _, v := range variants {
			o := Options{Nodes: p.nodes, Machine: machine.Generic()}
			v.mod(&o)
			scalar := runEquivProgram(t, p, o, false)
			blocked := runEquivProgram(t, p, o, true)
			if !equalEquivOutcome(scalar, blocked) {
				t.Logf("seed %d variant %s: scalar totals %+v span %v, block totals %+v span %v",
					seed, v.name, scalar.totals, scalar.span, blocked.totals, blocked.span)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 24}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

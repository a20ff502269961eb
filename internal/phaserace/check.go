package phaserace

import (
	"cmp"
	"sort"
)

// Form is the shape of a site's write set in one dimension.
type Form uint8

const (
	Point      Form = iota // the element At
	Interval               // the elements [Lo, Hi)
	ChunkElems             // the values of Elems[Lo:Hi], Elems strictly increasing, Lo:Hi a chunk window
	BlockAt                // a block of unknown length starting at the uniform At
	Unknown                // not decidable
)

// Set is one dimension of a site's write set.
type Set struct {
	Form   Form
	At     Affine
	Lo, Hi Affine
	Elems  any
}

// Guard is how many VPs a one-writer condition around a site admits.
type Guard uint8

const (
	Everyone     Guard = iota
	OnePerNode         // NodeRank == c
	OneInCluster       // GlobalRank == c
)

// GuardOf classifies the condition l == r from l - r: one rank symbol
// against uniform values holds in one VP of each node (NodeRank) or of
// the cluster (GlobalRank). Any other condition bounds nothing.
func GuardOf(diff Affine) Guard {
	g := Everyone
	for s := range diff.T {
		switch {
		case s.Kind == Uniform:
		case g == Everyone && s.Kind == GlobalRank:
			g = OneInCluster
		case g == Everyone && s.Kind == NodeRank:
			g = OnePerNode
		default:
			return Everyone
		}
	}
	return g
}

// Site is one write to a shared array inside a phase.
type Site struct {
	Array  any  // the array's identity; nil when it cannot be identified
	Global bool // one instance for the cluster, so nodes can collide
	Add    bool // a combining add: add/add pairs never conflict
	Dims   []Set
	One    Guard
	// Partial: another rank-dependent condition decides which VPs run
	// the write, or how often (a branch, a loop whose trip count
	// depends on rank), so an overlap is only possible.
	Partial bool
	Why     string // why a form is Unknown, for the finding
}

// Phase is the input of Check: the phase's write sites and what the
// front end knows about how it is started.
type Phase struct {
	Sites    []Site
	SingleVP bool           // every Do reaching the phase starts one VP per node
	ChunkN   map[any]Affine // chunk site -> the n of its ChunkRange(n, K, NodeRank)
}

// Verdict orders outcomes so that the worse of two is the larger.
type Verdict uint8

const (
	Disjoint Verdict = iota
	Possible
	Race
)

// Finding is one pair of sites two distinct VPs may write in common.
type Finding struct {
	I, J    int // I <= J; I == J compares a site with itself
	Verdict Verdict
	Why     string // Possible: why the pair is undecided
}

// Reasons a Possible finding gives.
const (
	notAffine = "the index is not an affine function of ranks, constants, and loop bounds"
	guarded   = "a rank-dependent condition decides which VPs execute the write"
	undecided = "index forms are affine but their difference is not decidable"
	sameIndex = "two VPs may evaluate the same index"
)

type verdict struct {
	v   Verdict
	why string
}

func worse(a, b verdict) verdict {
	if b.v > a.v {
		return b
	}
	return a
}

var (
	disjoint = verdict{v: Disjoint}
	race     = verdict{v: Race}
)

func possible(why string) verdict { return verdict{Possible, why} }

// Check compares every pair of sites of one array, each site also with
// itself, for two distinct VPs of the same node and, on a Global array,
// of two nodes. A site's one writer per node has no same-node partner
// running it, nor does a single-VP phase; one writer in the cluster has
// none at all. An overlap that a guard or Partial leaves unproven for
// the VPs actually running both sites is demoted to Possible.
func Check(p Phase) []Finding {
	var out []Finding
	for i, a := range p.Sites {
		if a.Array == nil {
			out = append(out, Finding{i, i, Possible, "cannot identify the target array"})
			continue
		}
		for j := i; j < len(p.Sites); j++ {
			b := p.Sites[j]
			if b.Array != a.Array || a.Add && b.Add {
				continue
			}
			self := i == j
			v := disjoint
			if !p.SingleVP && !(self && a.One >= OnePerNode) {
				v = worse(v, p.pair(a, b, true))
			}
			if a.Global && !(self && a.One == OneInCluster) {
				v = worse(v, p.pair(a, b, false))
			}
			switch {
			case v.v == Race && (a.Partial || b.Partial || !self && (a.One != Everyone || b.One != Everyone)):
				out = append(out, Finding{i, j, Possible, guarded})
			case v.v != Disjoint:
				out = append(out, Finding{i, j, v.v, cmp.Or(a.Why, b.Why, v.why)})
			}
		}
	}
	return out
}

// pair decides two sites for a pair of distinct VPs: disjoint if any
// dimension is, a race only if every dimension is.
func (p *Phase) pair(a, b Site, same bool) verdict {
	if len(a.Dims) != len(b.Dims) {
		return possible(undecided)
	}
	res := race
	for d := range a.Dims {
		switch v := p.dim(a.Dims[d], b.Dims[d], same); v.v {
		case Disjoint:
			return v
		case Possible:
			if res.v == Race {
				res = v
			}
		}
	}
	return res
}

func (p *Phase) dim(a, b Set, same bool) verdict {
	switch {
	case a.Form == Unknown || b.Form == Unknown:
		return possible(notAffine)
	case a.Form == Point && b.Form == Point:
		return points(a.At, b.At, same)
	case a.Form == Interval && b.Form == Interval:
		return p.intervals(a, b, same)
	case a.Form == ChunkElems && b.Form == ChunkElems:
		// Distinct chunk windows of one strictly increasing slice hold
		// distinct values; across nodes the slices themselves differ.
		if same && a.Elems == b.Elems && a.Lo.Equal(b.Lo) && a.Hi.Equal(b.Hi) {
			return disjoint
		}
	case a.Form == BlockAt && b.Form == BlockAt && a.At.Equal(b.At):
		return race // every VP's block starts at the same element
	}
	return possible(undecided)
}

// perVP are the kinds whose value can differ between two VPs of one
// node, perNode the others that can differ between nodes.
var (
	perVP   = []Kind{NodeRank, GlobalRank, ChunkLo, ChunkHi, Loop, Stride, Varying}
	perNode = []Kind{NodeVar, NodeID, OwnerLo, OwnerHi}
)

// chunked decomposes [Lo, Hi) as rest + [ChunkLo(s), ChunkHi(s)) for one
// chunk site s.
func chunked(x Set) (rest Affine, site any, ok bool) {
	var lo, hi Sym
	for s, c := range x.Lo.T {
		if s.Kind == ChunkLo && c == 1 {
			lo = s
		}
	}
	for s, c := range x.Hi.T {
		if s.Kind == ChunkHi && c == 1 {
			hi = s
		}
	}
	if lo.Kind != ChunkLo || hi.Kind != ChunkHi || lo.Key != hi.Key {
		return Affine{}, nil, false
	}
	rest = x.Lo.Without(lo)
	if !rest.Equal(x.Hi.Without(hi)) || rest.Has(ChunkLo, ChunkHi) {
		return Affine{}, nil, false
	}
	return rest, lo.Key, true
}

// ownerSpan reports that the window spans [u + OwnerLo(A), u + OwnerHi(A))
// on its node, with u uniform: a .ppm `for r = my_lo(A) to my_hi(A)`
// sweep, or a chunk of ChunkRange(hi - lo, K, rank) placed at lo.
func ownerSpan(lo, hi Affine) (array any, u Affine, ok bool) {
	for s, c := range lo.T {
		if s.Kind == OwnerLo && c == 1 {
			array = s.Key
		}
	}
	if array == nil {
		return nil, Affine{}, false
	}
	u = lo.Without(Sym{Kind: OwnerLo, Key: array})
	v := hi.Without(Sym{Kind: OwnerHi, Key: array})
	return array, u, u.Only(Uniform) && u.Equal(v)
}

// window is the key of the offset symbol a constant-width interval
// becomes: every VP's offset runs over the same [0, width).
type window struct{}

func (p *Phase) intervals(a, b Set, same bool) verdict {
	restA, siteA, chunkA := chunked(a)
	restB, siteB, chunkB := chunked(b)
	oneSite := chunkA && chunkB && siteA == siteB
	if oneSite && same {
		// One partition of the node: equal rests are disjoint windows; a
		// constant offset slides one window onto the next (a halo).
		if d, ok := restB.Sub(restA).IsConst(); ok && !restA.Has(perVP...) {
			if d == 0 {
				return disjoint
			}
			return race
		}
		return possible(undecided)
	}
	if !same {
		// Owned ranges of different nodes are disjoint, and so are
		// windows inside them that every node places alike.
		spanA, spanB := [2]Affine{a.Lo, a.Hi}, [2]Affine{b.Lo, b.Hi}
		if chunkA {
			spanA = [2]Affine{restA, restA.Add(p.ChunkN[siteA])}
		}
		if chunkB {
			spanB = [2]Affine{restB, restB.Add(p.ChunkN[siteB])}
		}
		if v, ok := ownerWindows(spanA, spanB); ok {
			return v
		}
	}
	if chunkA || chunkB {
		// One chunk partition of a uniform range on every node: equal
		// ranks of two nodes write the same window.
		_, shifted := restB.Sub(restA).IsConst()
		if oneSite && shifted && restA.Only(Uniform) && p.ChunkN[siteA].Only(Uniform) {
			return race
		}
		return possible(undecided)
	}
	// Constant-width windows are their start plus an offset in
	// [0, width): translated copies separate once the translation
	// reaches the width.
	wa, okA := a.Hi.Sub(a.Lo).IsConst()
	wb, okB := b.Hi.Sub(b.Lo).IsConst()
	if okA && okB && wa > 0 && wb > 0 {
		return points(a.Lo.Add(Of(Sym{Loop, window{}, wa})), b.Lo.Add(Of(Sym{Loop, window{}, wb})), same)
	}
	// The same window for both VPs of the pair overlaps.
	varies := a.Lo.Has(perVP...) || a.Hi.Has(perVP...) || !same && (a.Lo.Has(perNode...) || a.Hi.Has(perNode...))
	if a.Lo.Equal(b.Lo) && a.Hi.Equal(b.Hi) && !varies {
		return race
	}
	return possible(undecided)
}

// ownerWindows decides two windows of different nodes that both lie in
// their node's owned range of one array, shifted by u.
func ownerWindows(a, b [2]Affine) (verdict, bool) {
	arrA, uA, okA := ownerSpan(a[0], a[1])
	arrB, uB, okB := ownerSpan(b[0], b[1])
	if !okA || !okB || arrA != arrB {
		return verdict{}, false
	}
	if d, ok := uB.Sub(uA).IsConst(); ok {
		if d == 0 {
			return disjoint, true
		}
		return race, true // shifted windows cross the partition edges
	}
	return possible(undecided), true
}

// term is the difference contribution c·(v1 - v2) of one symbol, with
// the deltas the VP pair allows: whether a zero and a nonzero delta
// are possible, whether they are realized by some pair of distinct VPs
// (needed before claiming a race), and |delta| < bound when bound > 0.
type term struct {
	c                 int64
	kind              Kind
	zeroOK, zeroExact bool
	nonZero, exact    bool
	bound             int64
}

// points decides whether two distinct VPs can evaluate x and y to one
// index: whether x(v1) - y(v2) = 0 has a solution in the deltas each
// symbol allows.
func points(x, y Affine, same bool) verdict {
	if !x.OK || !y.OK {
		return possible(notAffine)
	}
	syms := map[Sym]bool{}
	for s := range x.T {
		syms[s] = true
	}
	for s := range y.T {
		syms[s] = true
	}
	var terms []term
	var stride *term
	rank := int64(0) // same node: NodeRank and GlobalRank move by one delta
	for s := range syms {
		c := x.T[s]
		if c != y.T[s] {
			return possible(undecided) // the two writes scale s differently
		}
		t := term{c: c, kind: s.Kind}
		switch s.Kind {
		case Uniform:
			continue // one value in both VPs: cancels
		case NodeRank, GlobalRank:
			if same {
				rank += c
				continue
			}
			t.nonZero, t.exact = true, true
			t.zeroOK, t.zeroExact = s.Kind == NodeRank, s.Kind == NodeRank // equal ranks on two nodes
		case NodeID:
			if same {
				continue
			}
			t.nonZero, t.exact = true, true
		case OwnerLo, OwnerHi, NodeVar:
			if same {
				continue
			}
			// Distinct across nodes by an unknown amount; a node
			// variable may also agree.
			t.nonZero, t.zeroOK = true, s.Kind == NodeVar
		case ChunkLo, ChunkHi:
			t.zeroOK, t.nonZero = true, true
		case Loop, Varying:
			t.zeroOK, t.zeroExact, t.nonZero = true, true, true
			if s.N > 0 {
				t.bound, t.exact, t.nonZero = s.N, true, s.N > 1
			}
		case Stride:
			t.bound = s.N
			stride = &t
			continue
		}
		terms = append(terms, t)
	}
	if rank != 0 {
		terms = append(terms, term{c: rank, kind: NodeRank, nonZero: true, exact: true})
	}
	sort.Slice(terms, func(i, j int) bool {
		if terms[i].kind != terms[j].kind {
			return terms[i].kind < terms[j].kind
		}
		return terms[i].c < terms[j].c
	})
	d := x.C - y.C
	if stride != nil {
		return strided(d, terms, stride, same)
	}
	return solve(d, terms)
}

// strided decides indices that move by m·K per step of a stride loop.
// Same-node ranks differ by less than K, so a rank term with
// |coefficient| <= m is never cancelled by whole strides: the
// `my_lo(A) + vp_node_rank`, `row = row + vp_count` idiom is disjoint.
func strided(d int64, terms []term, s *term, same bool) verdict {
	if !same {
		return possible("stride loops are only compared between VPs of one node")
	}
	m := abs(s.c) * s.bound
	switch {
	case len(terms) == 0 && d == 0:
		return race // every VP strides over the same elements
	case len(terms) == 0:
		return possible("the offset may land on another VP's stride")
	case len(terms) == 1 && terms[0].kind == NodeRank:
		cr := terms[0].c
		if d == 0 && abs(cr) <= m {
			return disjoint
		}
		if d%cr == 0 && abs(d/cr) == 1 {
			return race
		}
	}
	return possible("the stride pattern does not decide this pair")
}

// solve decides d + Σ c_i·delta_i = 0 over the allowed deltas: no
// solution is disjoint, a solution whose deltas are all realized is a
// race.
func solve(d int64, terms []term) verdict {
	switch len(terms) {
	case 0:
		if d == 0 {
			return race
		}
		return disjoint
	case 1:
		return solveOne(d, terms[0], true)
	case 2:
		// Enumerate a bounded term and decide the other per value.
		for i, t := range terms {
			if t.bound <= 0 || t.bound > 4096 {
				continue
			}
			best := disjoint
			for delta := -(t.bound - 1); delta < t.bound; delta++ {
				if delta == 0 && !t.zeroOK || delta != 0 && !t.nonZero {
					continue
				}
				exact := t.exact && (delta != 0 || t.zeroExact)
				if best = worse(best, solveOne(d+t.c*delta, terms[1-i], exact)); best.v == Race {
					return best
				}
			}
			return best
		}
	}
	return possible("the affine checker cannot relate these index expressions")
}

// solveOne decides d + c·delta = 0 for one term; exact says the rest of
// the solution is realized.
func solveOne(d int64, t term, exact bool) verdict {
	if t.c == 0 || d%t.c != 0 {
		return disjoint
	}
	q := d / t.c // the solution is delta = -q
	switch {
	case q == 0 && !t.zeroOK:
		return disjoint
	case q == 0 && t.zeroExact && exact:
		return race
	case q == 0:
		return possible(sameIndex)
	case !t.nonZero || t.bound > 0 && abs(q) >= t.bound:
		return disjoint
	case t.exact && exact:
		return race
	}
	return possible(sameIndex)
}

func abs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

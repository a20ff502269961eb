// Package phaserace decides the one data race the phase model leaves.
// Reads see the begin-of-phase state and writes commit at the phase's
// end, so the only conflict is two VP instances of one phase writing
// (or one writing and one adding to) the same element of one shared
// array. Whether they can is a property of the index expressions alone.
//
// The package holds what both front ends share: the write-site IR
// (Site), the affine algebra its index forms are written in (Affine),
// and the solver that turns every pair of sites into a verdict (Check).
// A front end lowers its own syntax tree to Sites — internal/lang from
// .ppm source, internal/analysis from go/ast and go/types — and formats
// the Findings with its own message texts. This package imports
// nothing but the standard library.
package phaserace

import "slices"

// Kind fixes how a symbol's value differs between two VP instances of
// one phase, which is all the pairwise test needs to know about it.
type Kind uint8

const (
	Uniform    Kind = iota // one value for every VP of the phase
	NodeVar                // one value per node, unknown across nodes (K, parameters)
	NodeID                 // the node's id: distinct across nodes
	NodeRank               // the VP's rank in its node: distinct within a node
	GlobalRank             // the VP's rank in the cluster: distinct everywhere
	OwnerLo                // start of the node's owned range of array Key
	OwnerHi                // end of the node's owned range of array Key
	ChunkLo                // start of the VP's ChunkRange window at chunk site Key
	ChunkHi                // end of the VP's ChunkRange window at chunk site Key
	Loop                   // a loop's offset from its lower bound: [0, N) when N > 0
	Stride                 // k·N·K after k steps of a loop striding by N times K
	Varying                // a rank-free variable reassigned per iteration
)

// Sym is one symbol of an affine form. Key tells apart symbols of one
// kind (a name, a types.Object, an ast.Node, a chunk-site id); N is the
// trip count of a Loop (0 when unknown) and the K multiple of a Stride.
type Sym struct {
	Kind Kind
	Key  any
	N    int64
}

// Affine is C + Σ T[s]·s, or not affine at all when OK is false.
type Affine struct {
	OK bool
	C  int64
	T  map[Sym]int64
}

// Const is the constant form c.
func Const(c int64) Affine { return Affine{OK: true, C: c} }

// Of is the form 1·s.
func Of(s Sym) Affine { return Affine{OK: true, T: map[Sym]int64{s: 1}} }

// AddScaled returns a + k·b; it is not affine when either side is not.
func (a Affine) AddScaled(b Affine, k int64) Affine {
	if !a.OK || !b.OK {
		return Affine{}
	}
	r := Affine{OK: true, C: a.C + k*b.C, T: map[Sym]int64{}}
	for s, c := range a.T {
		r.T[s] = c
	}
	for s, c := range b.T {
		r.T[s] += k * c
		if r.T[s] == 0 {
			delete(r.T, s)
		}
	}
	return r
}

func (a Affine) Add(b Affine) Affine  { return a.AddScaled(b, 1) }
func (a Affine) Sub(b Affine) Affine  { return a.AddScaled(b, -1) }
func (a Affine) Scale(k int64) Affine { return Const(0).AddScaled(a, k) }
func (a Affine) Without(s Sym) Affine { return a.AddScaled(Of(s), -a.T[s]) }
func (a Affine) Coef(s Sym) int64     { return a.T[s] }
func (a Affine) Equal(b Affine) bool  { d, ok := b.Sub(a).IsConst(); return ok && d == 0 }

// IsConst reports a form with no symbols, and its value.
func (a Affine) IsConst() (int64, bool) {
	if !a.OK || len(a.T) != 0 {
		return 0, false
	}
	return a.C, true
}

// Has reports whether a mentions a symbol of one of the kinds.
func (a Affine) Has(kinds ...Kind) bool {
	for s := range a.T {
		if slices.Contains(kinds, s.Kind) {
			return true
		}
	}
	return false
}

// Only reports whether a is affine and mentions no symbol of another kind.
func (a Affine) Only(kinds ...Kind) bool {
	for s := range a.T {
		if !slices.Contains(kinds, s.Kind) {
			return false
		}
	}
	return a.OK
}

// RankFree reports whether a has the same value, or the same sequence
// of values, in every VP: it mentions only uniform values and the
// offsets of loops and variables every VP steps through alike.
func (a Affine) RankFree() bool { return a.Only(Uniform, Loop, Varying) }

package phaserace

import (
	"fmt"
	"strings"
	"testing"
)

// Sites built directly, with no syntax tree: one row per rule the
// solver owns and one per demotion.

func point(a Affine) []Set { return []Set{{Form: Point, At: a}} }

func interval(lo, hi Affine) []Set { return []Set{{Form: Interval, Lo: lo, Hi: hi}} }

var (
	chunkLo = Of(Sym{Kind: ChunkLo, Key: 0})
	chunkHi = Of(Sym{Kind: ChunkHi, Key: 0})
	ownLo   = Of(Sym{Kind: OwnerLo, Key: "A"})
	ownHi   = Of(Sym{Kind: OwnerHi, Key: "A"})
	nodeK   = Sym{Kind: NodeVar, Key: "K"}
)

// summary renders findings as "i-j:race" / "i-j:possible".
func summary(fs []Finding) string {
	var parts []string
	for _, f := range fs {
		v := "race"
		if f.Verdict == Possible {
			v = "possible"
		}
		parts = append(parts, fmt.Sprintf("%d-%d:%s", f.I, f.J, v))
	}
	return strings.Join(parts, " ")
}

func TestCheckRules(t *testing.T) {
	node := func(dims []Set) Site { return Site{Array: "a", Dims: dims} }
	global := func(dims []Set) Site { return Site{Array: "a", Global: true, Dims: dims} }
	stride := Of(Sym{Kind: Stride, Key: "row", N: 1})
	for _, tc := range []struct {
		name  string
		phase Phase
		want  string
	}{
		// Rules.
		{"chunk partition is disjoint on a node",
			Phase{Sites: []Site{node(interval(chunkLo, chunkHi))}}, ""},
		{"halo: a shifted chunk window hits the next chunk",
			Phase{Sites: []Site{node(interval(chunkLo, chunkHi)), node(interval(chunkLo.Add(Const(1)), chunkHi.Add(Const(1))))}}, "0-1:race"},
		{"chunk window of the owned range is disjoint across nodes",
			Phase{Sites: []Site{global(interval(ownLo.Add(chunkLo), ownLo.Add(chunkHi)))}, ChunkN: map[any]Affine{0: ownHi.Sub(ownLo)}}, ""},
		{"chunk window of a uniform range collides across nodes",
			Phase{Sites: []Site{global(interval(chunkLo, chunkHi))}, ChunkN: map[any]Affine{0: Const(64)}}, "0-0:race"},
		{"my_lo(A) to my_hi(A), one VP per node, is disjoint across nodes",
			Phase{Sites: []Site{global(interval(ownLo, ownHi))}, SingleVP: true}, ""},
		{"my_lo(A) to my_hi(A), every VP of a node, overlaps",
			Phase{Sites: []Site{global(interval(ownLo, ownHi))}}, "0-0:race"},
		{"GlobalRank points are distinct everywhere",
			Phase{Sites: []Site{global(point(Of(grank)))}}, ""},
		{"NodeRank points are distinct on a node array",
			Phase{Sites: []Site{node(point(Of(rank)))}}, ""},
		{"NodeRank points collide across nodes",
			Phase{Sites: []Site{global(point(Of(rank)))}}, "0-0:race"},
		{"translated windows at least their width apart are disjoint",
			Phase{Sites: []Site{node(interval(Of(rank).Scale(4), Of(rank).Scale(4).Add(Const(4))))}}, ""},
		{"translated windows closer than their width overlap",
			Phase{Sites: []Site{node(interval(Of(rank).Scale(2), Of(rank).Scale(2).Add(Const(4))))}}, "0-0:race"},
		{"blocks at one uniform start overlap",
			Phase{Sites: []Site{node([]Set{{Form: BlockAt, At: Const(0)}})}}, "0-0:race"},
		{"chunk windows of an injective slice are disjoint",
			Phase{Sites: []Site{node([]Set{{Form: ChunkElems, Elems: "mine", Lo: chunkLo, Hi: chunkHi}})}}, ""},
		{"a vp_count stride from the rank is disjoint on a node",
			Phase{Sites: []Site{node(point(ownLo.Add(Of(rank)).Add(stride)))}}, ""},
		{"a stride plus one hits the neighbour's element",
			Phase{Sites: []Site{node(point(Of(rank).Add(stride))), node(point(Of(rank).Add(stride).Add(Const(1))))}}, "0-1:race"},
		{"a stride is not compared across nodes",
			Phase{Sites: []Site{global(point(Of(rank).Add(stride)))}}, "0-0:possible"},
		{"a per-node K may agree across nodes",
			Phase{Sites: []Site{{Array: "a", Global: true, One: OnePerNode, Dims: point(Of(nodeK))}}}, "0-0:possible"},
		{"add/add never conflicts, write/add does",
			Phase{Sites: []Site{{Array: "a", Add: true, Dims: point(Const(0))}, {Array: "a", Add: true, Dims: point(Const(0))}, node(point(Const(0)))}},
			"0-2:race 1-2:race 2-2:race"},
		{"different arrays never pair",
			Phase{Sites: []Site{node(point(Const(0))), {Array: "b", Dims: point(Const(1))}}}, "0-0:race 1-1:race"},
		{"a site with no array is possible on its own",
			Phase{Sites: []Site{{Dims: point(Const(0))}}}, "0-0:possible"},
		{"an unknown form is possible",
			Phase{Sites: []Site{node([]Set{{Form: Unknown}})}}, "0-0:possible"},
		{"one disjoint dimension separates two-dimensional writes",
			Phase{Sites: []Site{node([]Set{{Form: Point, At: Of(rank)}, {Form: Point, At: Const(2)}})}}, ""},
		// Demotions.
		{"one writer per node: no race on a node array",
			Phase{Sites: []Site{{Array: "a", One: OnePerNode, Dims: point(Const(5))}}}, ""},
		{"one writer per node: still a race on a global array",
			Phase{Sites: []Site{{Array: "a", Global: true, One: OnePerNode, Dims: point(Const(5))}}}, "0-0:race"},
		{"one writer in the cluster: no race",
			Phase{Sites: []Site{{Array: "a", Global: true, One: OneInCluster, Dims: point(Const(5))}}}, ""},
		{"two guarded sites are only possible",
			Phase{Sites: []Site{{Array: "a", One: OnePerNode, Dims: point(Const(5))}, {Array: "a", One: OnePerNode, Dims: point(Const(5))}}}, "0-1:possible"},
		{"a partial site's overlap is only possible",
			Phase{Sites: []Site{{Array: "a", Partial: true, Dims: point(Const(5))}}}, "0-0:possible"},
		{"a partial site stays disjoint when disjoint",
			Phase{Sites: []Site{{Array: "a", Partial: true, Dims: point(Of(rank))}}}, ""},
		{"single VP: no race on a node array",
			Phase{Sites: []Site{node(point(Const(5)))}, SingleVP: true}, ""},
		{"single VP: still a race on a global array",
			Phase{Sites: []Site{global(point(Const(5)))}, SingleVP: true}, "0-0:race"},
	} {
		if got := summary(Check(tc.phase)); got != tc.want {
			t.Errorf("%s: got %q, want %q", tc.name, got, tc.want)
		}
	}
}

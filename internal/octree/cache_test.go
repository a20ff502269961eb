package octree

import (
	"math"
	"reflect"
	"runtime/debug"
	"testing"

	"ppm/internal/rng"
)

// sliceCache is a Cache whose forest is a local buffer.
func sliceCache(buf []float64) *Cache {
	return NewCache(func(lo, hi int, dst []float64) { copy(dst, buf[lo:hi]) })
}

// The trees the cache must serve exactly: random ones of several sizes and
// the degenerate shapes Build can produce.
func cacheTestTrees() map[string][]Body {
	coincident := make([]Body, 11)
	for i := range coincident {
		coincident[i] = Body{X: 0.25, Y: -0.5, Z: 0.125, M: float64(i + 1)}
	}
	// Two far-apart clumps of coincident bodies: overflow leaves at
	// maxDepth on both sides of an internal root.
	overflow := append(append([]Body(nil), coincident...), Body{X: -0.7, Y: 0.7, Z: 0.7, M: 3})
	for i := 0; i < 7; i++ {
		overflow = append(overflow, Body{X: 0.9, Y: 0.9, Z: -0.9, M: 0.5})
	}
	return map[string][]Body{
		"empty":      nil,
		"single":     {{X: 0.1, Y: 0.2, Z: 0.3, M: 2}},
		"coincident": coincident,
		"overflow":   overflow,
		"random5":    randomBodies(3, 5),
		"random97":   randomBodies(4, 97),
		"random700":  randomBodies(5, 700),
	}
}

type span struct{ lo, hi int }

// Through the cache every record is DecodeNode's, the bulk reader sees
// exactly DecodeNodeRuns' ranges in first-touch order and nothing else
// however often a record is visited, pointers stay put, and memory is the
// records touched plus at most 4 bytes per record of the forest (rounded
// up to a pool class).
func TestCacheMatchesDecodeAndFetchesOnce(t *testing.T) {
	for name, bodies := range cacheTestTrees() {
		flat := buildOf(bodies).Flatten()
		n := len(flat) / Slots
		// A forest of three segments with spare room, the tree in the
		// middle one; its neighbours hold another tree.
		other := buildOf(randomBodies(9, 40)).Flatten()
		records := n + len(other)/Slots
		seg := records * Slots
		forest := make([]float64, 3*seg)
		copy(forest[0:], other)
		copy(forest[seg:], flat)
		copy(forest[2*seg:], other)

		var got []span
		c := NewCache(func(lo, hi int, dst []float64) {
			got = append(got, span{lo, hi})
			copy(dst, forest[lo:hi])
		})
		trees := []*CachedTree{c.Tree(0, records), c.Tree(seg, records), c.Tree(2*seg, records)}

		// Visit records of all three trees in a random order, three
		// visits each on average.
		r := rng.New(uint64(len(name)) + 77)
		var want []span
		first := map[[2]int]*FlatNode{}
		for v := 0; v < 3*(n+2*len(other)/Slots); v++ {
			ti := int(r.Float64() * 3)
			size := n
			if ti != 1 {
				size = len(other) / Slots
			}
			i := int(r.Float64() * float64(size))
			nd := trees[ti].Node(i)
			var ref FlatNode
			DecodeNode(func(j int) float64 { return forest[j] }, ti*seg, i, &ref)
			if !reflect.DeepEqual(*nd, ref) {
				t.Fatalf("%s: tree %d record %d: %+v, want %+v", name, ti, i, *nd, ref)
			}
			if p, seen := first[[2]int{ti, i}]; seen {
				if p != nd {
					t.Fatalf("%s: tree %d record %d moved", name, ti, i)
				}
				continue
			}
			first[[2]int{ti, i}] = nd
			DecodeNodeRuns(func(lo, hi int, dst []float64) {
				want = append(want, span{lo, hi})
				copy(dst, forest[lo:hi])
			}, ti*seg, i, &ref)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: reader saw %d ranges, want %d (first-touch order of DecodeNodeRuns)", name, len(got), len(want))
		}

		if c.n != len(first) {
			t.Errorf("%s: %d records stored for %d touched", name, c.n, len(first))
		}
		if slab := len(c.chunks) * cacheChunk; slab >= len(first)+cacheChunk {
			t.Errorf("%s: slab of %d records for %d touched", name, slab, len(first))
		}
		for ti, tr := range trees {
			// The backing comes from idxPool: a class of at least the
			// 4 bytes asked for, at most twice that, and at least 512.
			if len(tr.idx) > records || cap(tr.idx) > max(2*records, 128) {
				t.Errorf("%s: tree %d index holds %d entries (%d of backing) for %d records", name, ti, len(tr.idx), cap(tr.idx), records)
			}
		}

		// The traversal itself: same bits as over the decoded slice.
		src := NewSliceSource(flat)
		for _, b := range randomBodies(11, 8) {
			ax, ay, az, ni := Accel(src, b.X, b.Y, b.Z, 0.5, 0.05)
			bx, by, bz, nj := Accel(trees[1], b.X, b.Y, b.Z, 0.5, 0.05)
			if ax != bx || ay != by || az != bz || ni != nj {
				t.Errorf("%s: traversal through the cache differs", name)
			}
		}
	}
}

// An index far smaller than the tree's capacity serves a reader that only
// touches low record numbers, as a VP does on a far tree.
func TestCacheIndexScalesWithTouched(t *testing.T) {
	flat := buildOf(randomBodies(6, 2000)).Flatten()
	tr := sliceCache(flat).Tree(0, 1<<20)
	for i := 0; i < 9; i++ {
		tr.Node(i)
	}
	if len(tr.idx) > 16 {
		t.Errorf("index of %d entries after touching records 0..8", len(tr.idx))
	}
}

func TestCacheRejectsRecordOutsideTree(t *testing.T) {
	flat := buildOf(randomBodies(6, 50)).Flatten()
	tr := sliceCache(flat).Tree(0, len(flat)/Slots)
	for _, i := range []int{-1, len(flat) / Slots} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("record %d accepted", i)
				}
			}()
			tr.Node(i)
		}()
	}
}

// A warm hit allocates nothing, and a miss nothing per record: a chunk per
// 64 misses and the index's doublings.
func TestCacheAllocations(t *testing.T) {
	bodies := randomBodies(8, 300)
	flat := buildOf(bodies).Flatten()
	tr := sliceCache(flat).Tree(0, len(flat)/Slots)
	b := bodies[0]
	Accel(tr, b.X, b.Y, b.Z, 0.5, 0.05) // warm
	if a := testing.AllocsPerRun(20, func() { Accel(tr, b.X, b.Y, b.Z, 0.5, 0.05) }); a != 0 {
		t.Errorf("warm traversal allocates %v times", a)
	}
	cold := testing.AllocsPerRun(20, func() {
		tr := sliceCache(flat).Tree(0, len(flat)/Slots)
		for i := 0; i < 2*cacheChunk; i++ {
			tr.Node(i)
		}
	})
	// The cache, its reader's closure, the tree, two chunks, the chunk
	// list twice, the index's backing.
	if cold > 12 {
		t.Errorf("%d misses allocate %v times", 2*cacheChunk, cold)
	}
}

// A cache filled, released and refilled with other trees serves records
// and traversals bit-equal to SliceSource's every time. The first rounds
// are small enough for one chunk, so a refill usually decodes into the
// very slots the last fill used: round 1's root is a leaf of one body in
// the slot where round 0's leaf of four lay.
func TestCacheReleaseAndRefill(t *testing.T) {
	four := []Body{{X: 0.1, Y: 0.2, Z: 0.3, M: 1}, {X: -0.4, Y: 0.5, Z: 0.6, M: 2}, {X: 0.7, Y: -0.8, Z: 0.9, M: 3}, {X: -0.2, Y: -0.3, Z: -0.4, M: 4}}
	rounds := [][2][]Body{
		{four, randomBodies(12, 9)},
		{four[:1], randomBodies(13, 6)},
		{randomBodies(14, 300), four},
		{randomBodies(15, 3), randomBodies(16, 250)},
	}
	const records = 400
	seg := records * Slots
	buf := make([]float64, 2*seg)
	c := sliceCache(buf)
	trees := [2]*CachedTree{c.Tree(0, records), c.Tree(seg, records)}
	for r, round := range rounds {
		clear(buf)
		var srcs [2]SliceSource
		for k, bodies := range round {
			flat := buildOf(bodies).Flatten()
			copy(buf[k*seg:], flat)
			srcs[k] = NewSliceSource(flat)
		}
		for k, tr := range trees {
			for i := range srcs[k] {
				if got := tr.Node(i); *got != srcs[k][i] {
					t.Fatalf("round %d tree %d record %d: %+v, want %+v", r, k, i, *got, srcs[k][i])
				}
			}
			for _, b := range randomBodies(uint64(20+r), 6) {
				ax, ay, az, ni := Accel(srcs[k], b.X, b.Y, b.Z, 0.5, 0.05)
				bx, by, bz, nj := Accel(tr, b.X, b.Y, b.Z, 0.5, 0.05)
				if math.Float64bits(ax) != math.Float64bits(bx) || math.Float64bits(ay) != math.Float64bits(by) ||
					math.Float64bits(az) != math.Float64bits(bz) || ni != nj {
					t.Errorf("round %d tree %d: traversal through the refilled cache differs", r, k)
				}
			}
		}
		c.Release()
		if c.n != 0 || len(c.chunks) != 0 {
			t.Fatalf("round %d: %d records in %d chunks after Release", r, c.n, len(c.chunks))
		}
	}
}

// Once a fill has sized the trees' indexes, refilling a released cache
// allocates nothing: its chunks come back from the pool.
func TestCacheRefillAfterReleaseAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	flat := buildOf(randomBodies(8, 300)).Flatten()
	c := sliceCache(flat)
	tr := c.Tree(0, len(flat)/Slots)
	fill := func() {
		for i := 0; i < len(flat)/Slots; i++ {
			tr.Node(i)
		}
		c.Release()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fill()
	if a := testing.AllocsPerRun(20, fill); a != 0 {
		t.Errorf("a refill of %d records after Release allocates %v times", len(flat)/Slots, a)
	}
}

// A legal tree can need 7 stack entries per level: 7 occupied sibling
// octants at each of 30 levels, the eighth leading one level down. With
// theta = 0 every cell is opened, and child 7 is popped first, so all 210
// siblings are on the stack at once.
func TestAccelDeepClusterThetaZero(t *testing.T) {
	var bodies []Body
	cx, cy, cz, h := 0.0, 0.0, 0.0, 1.0
	for level := 0; level < 30; level++ {
		for oct := 0; oct < 7; oct++ {
			b := Body{X: cx - h/2, Y: cy - h/2, Z: cz - h/2, M: 1}
			if oct&1 != 0 {
				b.X = cx + h/2
			}
			if oct&2 != 0 {
				b.Y = cy + h/2
			}
			if oct&4 != 0 {
				b.Z = cz + h/2
			}
			bodies = append(bodies, b)
		}
		cx, cy, cz, h = cx+h/2, cy+h/2, cz+h/2, h/2
	}
	src := NewSliceSource(Build(bodies, 0, 0, 0, 1).Flatten())
	ax, ay, az, n := Accel(src, -2, -2, -2, 0, 0.05)
	if n != int64(len(bodies)) {
		t.Fatalf("%d interactions, want %d", n, len(bodies))
	}
	dx, dy, dz := DirectAccel(bodies, -2, -2, -2, 0.05)
	if math.Abs(ax-dx) > 1e-9 || math.Abs(ay-dy) > 1e-9 || math.Abs(az-dz) > 1e-9 {
		t.Errorf("tree (%v,%v,%v) vs direct (%v,%v,%v)", ax, ay, az, dx, dy, dz)
	}
}

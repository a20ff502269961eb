package octree

import (
	"math"
	"runtime/debug"
	"sort"
	"testing"
	"testing/quick"

	"ppm/internal/rng"
)

func randomBodies(seed uint64, n int) []Body {
	r := rng.New(seed)
	bodies := make([]Body, n)
	for i := range bodies {
		bodies[i] = Body{
			X: r.Float64()*2 - 1,
			Y: r.Float64()*2 - 1,
			Z: r.Float64()*2 - 1,
			M: 0.5 + r.Float64(),
		}
	}
	return bodies
}

func buildOf(bodies []Body) *Tree {
	cx, cy, cz, h := Bounds(bodies)
	return Build(bodies, cx, cy, cz, h)
}

// bodiesIn returns the bodies node n of tr holds, inline and overflowing.
func bodiesIn(tr *Tree, n *node) []int32 {
	inline, over := tr.bodiesOf(n)
	return append(append([]int32(nil), inline...), over...)
}

func TestBoundsEncloseAll(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%100) + 1
		bodies := randomBodies(seed, n)
		cx, cy, cz, h := Bounds(bodies)
		for _, b := range bodies {
			if math.Abs(b.X-cx) > h || math.Abs(b.Y-cy) > h || math.Abs(b.Z-cz) > h {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMassConservation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%200) + 1
		bodies := randomBodies(seed, n)
		tr := buildOf(bodies)
		var want float64
		for _, b := range bodies {
			want += b.M
		}
		got := tr.nodes[0].mass
		return math.Abs(got-want) < 1e-9*want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEveryBodyInExactlyOneLeaf(t *testing.T) {
	bodies := randomBodies(3, 500)
	tr := buildOf(bodies)
	seen := make([]int, len(bodies))
	for i := range tr.nodes {
		n := &tr.nodes[i]
		if !n.leaf {
			if len(bodiesIn(tr, n)) != 0 {
				t.Fatal("internal node holds bodies")
			}
			continue
		}
		for _, bi := range bodiesIn(tr, n) {
			seen[bi]++
		}
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("body %d appears in %d leaves", i, c)
		}
	}
}

func TestLeafCapacityRespected(t *testing.T) {
	bodies := randomBodies(9, 300)
	tr := buildOf(bodies)
	for i := range tr.nodes {
		if n := &tr.nodes[i]; n.leaf && len(bodiesIn(tr, n)) > LeafCap {
			t.Fatalf("leaf holds %d bodies (cap %d)", len(bodiesIn(tr, n)), LeafCap)
		}
	}
}

func TestRootCOMMatchesDirect(t *testing.T) {
	bodies := randomBodies(17, 64)
	tr := buildOf(bodies)
	var m, x, y, z float64
	for _, b := range bodies {
		m += b.M
		x += b.M * b.X
		y += b.M * b.Y
		z += b.M * b.Z
	}
	root := tr.nodes[0]
	if math.Abs(root.comX-x/m) > 1e-9 || math.Abs(root.comY-y/m) > 1e-9 || math.Abs(root.comZ-z/m) > 1e-9 {
		t.Errorf("root COM (%v,%v,%v) vs direct (%v,%v,%v)",
			root.comX, root.comY, root.comZ, x/m, y/m, z/m)
	}
}

func TestCoincidentBodiesDoNotRecurseForever(t *testing.T) {
	bodies := make([]Body, 20)
	for i := range bodies {
		bodies[i] = Body{X: 0.5, Y: 0.5, Z: 0.5, M: 1}
	}
	tr := Build(bodies, 0, 0, 0, 1)
	if tr.NumBodies() != 20 {
		t.Fatal("bodies lost")
	}
	if math.Abs(tr.nodes[0].mass-20) > 1e-12 {
		t.Fatalf("mass %v", tr.nodes[0].mass)
	}
	// Flattened tree must preserve total mass through the overflow fold.
	flat := tr.Flatten()
	var inline float64
	for ni := 0; ni < tr.NumNodes(); ni++ {
		base := ni * Slots
		nb := int(flat[base+slotNBody])
		for k := 0; k < nb; k++ {
			inline += flat[base+slotBodies+k*4+3]
		}
	}
	if math.Abs(inline-20) > 1e-9 {
		t.Fatalf("inline leaf mass %v, want 20", inline)
	}
}

// theta = 0 never accepts a multipole, so tree traversal must equal the
// direct O(n^2) sum exactly (up to summation-order rounding).
func TestAccelThetaZeroMatchesDirect(t *testing.T) {
	bodies := randomBodies(23, 128)
	tr := buildOf(bodies)
	flat := NewSliceSource(tr.Flatten())
	for i := 0; i < 16; i++ {
		b := bodies[i*7]
		ax, ay, az, _ := Accel(flat, b.X, b.Y, b.Z, 0, 0.05)
		dx, dy, dz := DirectAccel(bodies, b.X, b.Y, b.Z, 0.05)
		if math.Abs(ax-dx) > 1e-9 || math.Abs(ay-dy) > 1e-9 || math.Abs(az-dz) > 1e-9 {
			t.Fatalf("body %d: tree (%v,%v,%v) vs direct (%v,%v,%v)", i, ax, ay, az, dx, dy, dz)
		}
	}
}

// Moderate theta keeps relative error small and reduces interactions.
func TestAccelThetaTradeoff(t *testing.T) {
	bodies := randomBodies(31, 1000)
	tr := buildOf(bodies)
	flat := NewSliceSource(tr.Flatten())
	var worstRel float64
	var exactInter, approxInter int64
	for i := 0; i < 50; i++ {
		b := bodies[i*19]
		ax, ay, az, ni := Accel(flat, b.X, b.Y, b.Z, 0.5, 0.05)
		approxInter += ni
		dx, dy, dz := DirectAccel(bodies, b.X, b.Y, b.Z, 0.05)
		_, _, _, ne := Accel(flat, b.X, b.Y, b.Z, 0, 0.05)
		exactInter += ne
		mag := math.Sqrt(dx*dx + dy*dy + dz*dz)
		err := math.Sqrt((ax-dx)*(ax-dx)+(ay-dy)*(ay-dy)+(az-dz)*(az-dz)) / (mag + 1e-30)
		if err > worstRel {
			worstRel = err
		}
	}
	if worstRel > 0.05 {
		t.Errorf("theta=0.5 worst relative error %v, want < 5%%", worstRel)
	}
	if approxInter*2 >= exactInter {
		t.Errorf("theta=0.5 should use far fewer interactions: %d vs %d", approxInter, exactInter)
	}
}

// The flat encoding must contain the same tree: traverse and compare
// against an identically built second tree.
func TestFlattenDeterministic(t *testing.T) {
	bodies := randomBodies(41, 256)
	a := buildOf(bodies).Flatten()
	b := buildOf(bodies).Flatten()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("flat[%d]: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestEmptyAndSingle(t *testing.T) {
	tr := Build(nil, 0, 0, 0, 1)
	if tr.NumNodes() != 1 {
		t.Fatal("empty tree shape")
	}
	ax, ay, az, n := Accel(NewSliceSource(tr.Flatten()), 1, 1, 1, 0.5, 0.1)
	if ax != 0 || ay != 0 || az != 0 || n != 0 {
		t.Error("empty tree exerts force")
	}
	one := []Body{{X: 0.1, Y: 0.2, Z: 0.3, M: 2}}
	tr1 := buildOf(one)
	gx, gy, gz, _ := Accel(NewSliceSource(tr1.Flatten()), 0.6, 0.2, 0.3, 0.5, 0)
	// Pull should point in -x from the probe toward the body.
	if gx >= 0 || math.Abs(gy) > 1e-12 || math.Abs(gz) > 1e-12 {
		t.Errorf("single-body pull wrong: (%v,%v,%v)", gx, gy, gz)
	}
	want := 2.0 / (0.5 * 0.5)
	if math.Abs(-gx-want) > 1e-9 {
		t.Errorf("magnitude %v, want %v", -gx, want)
	}
}

func TestBuildPanicsOnBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Build(nil, 0, 0, 0, -1)
}

func TestSubtreeOffsets(t *testing.T) {
	// Accel with a non-zero offset must see the same tree embedded at an
	// offset within a larger buffer (as PPM tree segments are).
	bodies := randomBodies(5, 100)
	tr := buildOf(bodies)
	flat := tr.Flatten()
	buf := make([]float64, 1000+len(flat))
	copy(buf[1000:], flat)
	b := bodies[3]
	ax1, ay1, az1, _ := Accel(NewSliceSource(flat), b.X, b.Y, b.Z, 0.5, 0.05)
	ax2, ay2, az2, _ := Accel(sliceCache(buf).Tree(1000, len(flat)/Slots), b.X, b.Y, b.Z, 0.5, 0.05)
	if ax1 != ax2 || ay1 != ay2 || az1 != az2 {
		t.Error("offset traversal differs")
	}
}

// A tree built in a released one's storage, and flattened over garbage,
// encodes exactly what a tree built from nothing does, whatever shape the
// storage held before: one with overflow leaves, a larger or a smaller
// one.
func TestPooledBuildMatchesFresh(t *testing.T) {
	shapes := cacheTestTrees()
	names := make([]string, 0, len(shapes))
	for name := range shapes {
		names = append(names, name)
	}
	sort.Strings(names)
	for round := 0; round < 3; round++ {
		for _, name := range names {
			bodies := shapes[name]
			cx, cy, cz, h := Bounds(bodies)
			want := new(Tree).build(bodies, cx, cy, cz, h).Flatten()
			tr := Build(bodies, cx, cy, cz, h)
			dst := make([]float64, len(want)+Slots)
			for i := range dst {
				dst[i] = math.NaN()
			}
			got := tr.FlattenInto(dst)
			tr.Release()
			if len(got) != len(want) {
				t.Fatalf("round %d %s: %d slots, want %d", round, name, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("round %d %s: slot %d is %v, want %v", round, name, i, got[i], want[i])
				}
			}
		}
	}
}

// Once a tree of a shape has been built and released, building and
// flattening another of that shape allocates nothing: the tree, its nodes
// and its overflow lists come back from the pool.
func TestRebuildAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for name, bodies := range cacheTestTrees() {
		cx, cy, cz, h := Bounds(bodies)
		dst := make([]float64, buildOf(bodies).NumNodes()*Slots)
		build := func() {
			tr := Build(bodies, cx, cy, cz, h)
			tr.FlattenInto(dst)
			tr.Release()
		}
		build()
		if a := testing.AllocsPerRun(20, build); a != 0 {
			t.Errorf("%s: a second Build and FlattenInto allocate %v times", name, a)
		}
	}
}

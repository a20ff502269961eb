// Package octree implements the Barnes–Hut octree: construction over a
// set of bodies, center-of-mass summarization, a flat float64 encoding
// that can live inside PPM global shared arrays or travel through the
// message-passing layer, and force evaluation with the multipole
// acceptance criterion.
//
// The flat encoding is the package's interchange format: the PPM
// application traverses remote trees in place through bundled fine-
// grained reads, while the message-passing baseline replicates whole
// flattened trees (the approach the paper cites and criticizes). Both
// traverse the same bytes with the same Accel routine, so the physics is
// identical and only the communication pattern differs.
package octree

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"ppm/internal/wire"
)

// LeafCap is the maximum number of bodies a leaf holds before splitting.
const LeafCap = 4

// maxDepth bounds tree depth; beyond it leaves are allowed to overflow
// LeafCap (guards against coincident bodies).
const maxDepth = 48

// stackCap is the deepest Accel's traversal stack can get on a legal tree:
// opening a node pops one entry and pushes at most 8, and only the nodes
// at depths 0..maxDepth-1 of a root-to-leaf path can be internal.
const stackCap = 7*maxDepth + 1

// Slots is the number of float64 slots one node occupies in the flat
// encoding.
const Slots = 32

// Flat-encoding slot offsets within a node.
const (
	slotMass   = 0
	slotComX   = 1
	slotComY   = 2
	slotComZ   = 3
	slotHalf   = 4
	slotChild0 = 5  // 8 child node indices (or -1), as float64
	slotNBody  = 13 // number of inline leaf bodies
	slotBodies = 14 // LeafCap * (x, y, z, m)
)

// Body is a point mass.
type Body struct {
	X, Y, Z float64
	M       float64
}

// node is one tree node: 128 bytes, its leaf bodies inline. A leaf holds
// at most LeafCap of them, except at maxDepth, where the ones past LeafCap
// go to the tree's overflow list over-1.
type node struct {
	cx, cy, cz, half       float64
	mass, comX, comY, comZ float64
	children               [8]int32 // -1 if absent; leaf iff all -1
	bodies                 [LeafCap]int32
	nb                     int32 // bodies held, inline and overflowing
	over                   int32 // 1 + index in Tree.over, 0 for none
	leaf                   bool
}

// Tree is a built Barnes–Hut octree over a body set.
type Tree struct {
	nodes  []node
	bodies []Body
	over   [][]int32 // overflow bodies of leaves at maxDepth
}

// trees holds released trees, whose node slices the next Build reuses.
var trees sync.Pool // of *Tree

// NumNodes returns the number of tree nodes.
func (t *Tree) NumNodes() int { return len(t.nodes) }

// NumBodies returns the number of bodies in the tree.
func (t *Tree) NumBodies() int { return len(t.bodies) }

// Bounds returns a cube enclosing all bodies: center and half-width.
func Bounds(bodies []Body) (cx, cy, cz, half float64) {
	if len(bodies) == 0 {
		return 0, 0, 0, 1
	}
	minX, minY, minZ := math.Inf(1), math.Inf(1), math.Inf(1)
	maxX, maxY, maxZ := math.Inf(-1), math.Inf(-1), math.Inf(-1)
	for _, b := range bodies {
		minX, maxX = math.Min(minX, b.X), math.Max(maxX, b.X)
		minY, maxY = math.Min(minY, b.Y), math.Max(maxY, b.Y)
		minZ, maxZ = math.Min(minZ, b.Z), math.Max(maxZ, b.Z)
	}
	cx, cy, cz = (minX+maxX)/2, (minY+maxY)/2, (minZ+maxZ)/2
	half = math.Max(maxX-minX, math.Max(maxY-minY, maxZ-minZ))/2 + 1e-12
	half *= 1.0001
	return cx, cy, cz, half
}

// Build constructs the octree for bodies within the given bounding cube.
// Pass the output of Bounds, or a common global cube when several nodes
// build sub-trees that must align spatially. The tree is one a Release
// handed back, if the pool holds one, built in place: once a tree of a
// shape has been built and released, building another allocates nothing.
func Build(bodies []Body, cx, cy, cz, half float64) *Tree {
	if half <= 0 {
		panic(fmt.Sprintf("octree: non-positive half-width %v", half))
	}
	t, _ := trees.Get().(*Tree)
	if t == nil {
		t = new(Tree)
	}
	return t.build(bodies, cx, cy, cz, half)
}

// build makes t the tree over bodies, reusing its storage.
func (t *Tree) build(bodies []Body, cx, cy, cz, half float64) *Tree {
	t.bodies = bodies
	// A tree over n bodies has about 0.7n nodes (Plummer spheres and
	// uniform cubes of 100 to 3000 bodies), so room for n+1 seldom grows.
	t.nodes = append(slices.Grow(t.nodes[:0], len(bodies)+1), newNode(cx, cy, cz, half))
	for i := range t.over {
		t.over[i] = t.over[i][:0]
	}
	t.over = t.over[:0]
	for i := range bodies {
		t.insert(0, int32(i), 0)
	}
	t.summarize(0)
	return t
}

// Release hands t to the next Build. Neither t nor anything its methods
// returned by reference may be used afterwards.
func (t *Tree) Release() {
	t.bodies = nil
	trees.Put(t)
}

func newNode(cx, cy, cz, half float64) node {
	n := node{cx: cx, cy: cy, cz: cz, half: half, leaf: true}
	for i := range n.children {
		n.children[i] = -1
	}
	return n
}

// bodiesOf returns the bodies of leaf n in the order they were inserted:
// the inline ones, then the overflow.
func (t *Tree) bodiesOf(n *node) (inline, over []int32) {
	inline = n.bodies[:min(n.nb, LeafCap)]
	if n.over > 0 {
		over = t.over[n.over-1]
	}
	return inline, over
}

// add appends body bi to leaf n.
func (t *Tree) add(n *node, bi int32) {
	if n.nb < LeafCap {
		n.bodies[n.nb] = bi
	} else {
		if n.over == 0 {
			if len(t.over) < cap(t.over) {
				t.over = t.over[:len(t.over)+1] // its list from an earlier Build
			} else {
				t.over = append(t.over, nil)
			}
			n.over = int32(len(t.over))
		}
		t.over[n.over-1] = append(t.over[n.over-1], bi)
	}
	n.nb++
}

func (t *Tree) insert(ni int, bi int32, depth int) {
	n := &t.nodes[ni]
	if n.leaf {
		if n.nb < LeafCap || depth >= maxDepth {
			t.add(n, bi)
			return
		}
		// Split: push existing bodies down, then retry.
		old := n.bodies
		n.nb = 0
		n.leaf = false
		for _, ob := range old {
			t.insertChild(ni, ob, depth)
		}
		t.insertChild(ni, bi, depth)
		return
	}
	t.insertChild(ni, bi, depth)
}

func (t *Tree) insertChild(ni int, bi int32, depth int) {
	b := t.bodies[bi]
	n := &t.nodes[ni]
	oct := 0
	if b.X >= n.cx {
		oct |= 1
	}
	if b.Y >= n.cy {
		oct |= 2
	}
	if b.Z >= n.cz {
		oct |= 4
	}
	ci := n.children[oct]
	if ci < 0 {
		h := n.half / 2
		cx, cy, cz := n.cx-h, n.cy-h, n.cz-h
		if oct&1 != 0 {
			cx = n.cx + h
		}
		if oct&2 != 0 {
			cy = n.cy + h
		}
		if oct&4 != 0 {
			cz = n.cz + h
		}
		ci = int32(len(t.nodes))
		n.children[oct] = ci
		t.nodes = append(t.nodes, newNode(cx, cy, cz, h))
	}
	t.insert(int(ci), bi, depth+1)
}

// summarize computes mass and center of mass bottom-up.
func (t *Tree) summarize(ni int) (mass, mx, my, mz float64) {
	n := &t.nodes[ni]
	if n.leaf {
		inline, over := t.bodiesOf(n)
		for _, list := range [2][]int32{inline, over} {
			for _, bi := range list {
				b := t.bodies[bi]
				mass += b.M
				mx += b.M * b.X
				my += b.M * b.Y
				mz += b.M * b.Z
			}
		}
	} else {
		for _, ci := range n.children {
			if ci < 0 {
				continue
			}
			m, x, y, z := t.summarize(int(ci))
			mass += m
			mx += x
			my += y
			mz += z
		}
	}
	n.mass = mass
	if mass > 0 {
		n.comX, n.comY, n.comZ = mx/mass, my/mass, mz/mass
	} else {
		n.comX, n.comY, n.comZ = n.cx, n.cy, n.cz
	}
	return mass, mx, my, mz
}

// Flatten serializes the tree into the flat float64 encoding: node i
// occupies Slots values starting at i*Slots.
func (t *Tree) Flatten() []float64 {
	return t.FlattenInto(make([]float64, len(t.nodes)*Slots))
}

// FlattenInto writes the flat encoding of the tree into dst, which must
// hold NumNodes()*Slots values, and returns that prefix of dst. It writes
// every slot of each node, unused ones as zero, so dst may hold anything
// before.
func (t *Tree) FlattenInto(dst []float64) []float64 {
	out := dst[:len(t.nodes)*Slots]
	for i := range t.nodes {
		n := &t.nodes[i]
		rec := out[i*Slots : (i+1)*Slots]
		rec[slotMass] = n.mass
		rec[slotComX] = n.comX
		rec[slotComY] = n.comY
		rec[slotComZ] = n.comZ
		rec[slotHalf] = n.half
		for c := 0; c < 8; c++ {
			rec[slotChild0+c] = float64(n.children[c])
		}
		rec[slotNBody] = float64(min(n.nb, LeafCap))
		clear(rec[slotBodies:])
		inline, over := t.bodiesOf(n)
		for k, bi := range inline {
			s := slotBodies + k*4
			b := t.bodies[bi]
			rec[s+0], rec[s+1], rec[s+2], rec[s+3] = b.X, b.Y, b.Z, b.M
		}
		// Overflow leaves (coincident bodies at maxDepth) cannot be
		// encoded inline; fold the extras into the last slot as a combined
		// point mass at the leaf COM.
		last := rec[slotBodies+(LeafCap-1)*4:]
		for _, bi := range over {
			b := t.bodies[bi]
			tm := last[3] + b.M
			if tm > 0 {
				last[0] = (last[0]*last[3] + b.X*b.M) / tm
				last[1] = (last[1]*last[3] + b.Y*b.M) / tm
				last[2] = (last[2]*last[3] + b.Z*b.M) / tm
			}
			last[3] = tm
		}
	}
	return out
}

// FlatNode is one decoded tree-node record of the flat encoding. Force
// evaluation works on records: a traversal fetches each visited node once
// as a unit, which is both faster on the host and the realistic transfer
// granularity for a runtime moving tree nodes between address spaces.
type FlatNode struct {
	Mass             float64
	ComX, ComY, ComZ float64
	Half             float64
	Child            [8]int32
	NBody            int32
	Bodies           [LeafCap * 4]float64 // x, y, z, m per inline body
}

// DecodeNode fills out from node i of the flat encoding starting at off,
// reading through at (an element accessor, e.g. a slice index or a PPM
// shared read).
func DecodeNode(at func(i int) float64, off, i int, out *FlatNode) {
	base := off + i*Slots
	out.Mass = at(base + slotMass)
	out.ComX = at(base + slotComX)
	out.ComY = at(base + slotComY)
	out.ComZ = at(base + slotComZ)
	out.Half = at(base + slotHalf)
	for c := 0; c < 8; c++ {
		out.Child[c] = int32(at(base + slotChild0 + c))
	}
	out.NBody = int32(at(base + slotNBody))
	for k := 0; k < int(out.NBody)*4; k++ {
		out.Bodies[k] = at(base + slotBodies + k)
	}
}

// DecodeNodeRuns fills out from node i of the flat encoding using a bulk
// reader: the header slots (mass, COM, half-width, children, body count)
// form one contiguous run and the inline leaf bodies a second, so a
// runtime with block access fetches a record in at most two range reads.
// The elements touched, and their order, are exactly DecodeNode's.
func DecodeNodeRuns(read func(lo, hi int, dst []float64), off, i int, out *FlatNode) {
	var hdr [slotBodies]float64
	decodeNodeRuns(read, &hdr, off, i, out)
}

// decodeNodeRuns is DecodeNodeRuns with the header's landing buffer
// supplied by the caller: a buffer handed to read escapes, so a caller that
// decodes many records keeps one instead of allocating one per record.
func decodeNodeRuns(read func(lo, hi int, dst []float64), hdr *[slotBodies]float64, off, i int, out *FlatNode) {
	base := off + i*Slots
	read(base, base+slotBodies, hdr[:])
	out.Mass = hdr[slotMass]
	out.ComX = hdr[slotComX]
	out.ComY = hdr[slotComY]
	out.ComZ = hdr[slotComZ]
	out.Half = hdr[slotHalf]
	for c := 0; c < 8; c++ {
		out.Child[c] = int32(hdr[slotChild0+c])
	}
	out.NBody = int32(hdr[slotNBody])
	if nb := int(out.NBody) * 4; nb > 0 {
		read(base+slotBodies, base+slotBodies+nb, out.Bodies[:nb])
	}
}

// Source provides the decoded records of one flattened tree by reference.
// Node returns record i; the pointer is valid until the next call on the
// same Source, and the record must not be modified through it. A forest is
// immutable while it is being traversed, which is what lets an
// implementation keep decoded records and hand out the one it holds.
type Source interface {
	Node(i int) *FlatNode
}

// SliceSource is the records of a flat tree held in local memory, decoded
// once; build it once per tree and traverse it as often as needed.
type SliceSource []FlatNode

// NewSliceSource decodes every record of flat (len(flat)/Slots of them).
func NewSliceSource(flat []float64) SliceSource {
	s := make(SliceSource, len(flat)/Slots)
	for i := range s {
		DecodeNode(func(j int) float64 { return flat[j] }, 0, i, &s[i])
	}
	return s
}

// Node implements Source.
func (s SliceSource) Node(i int) *FlatNode { return &s[i] }

// cacheChunk is the number of records per slab chunk: large enough that a
// traversal allocates once per 64 first touches, small enough (13 KiB) that
// a reader touching a handful of records of a far tree wastes little.
const (
	cacheChunkShift = 6
	cacheChunk      = 1 << cacheChunkShift
)

type cacheSlab = [cacheChunk]FlatNode

// chunkPool holds the chunks of released caches for the next cache that
// misses, and idxPool their trees' indexes. A reader's cache lives for one
// phase and the next reader's starts right after it, well inside one
// collection cycle, so the chunks and indexes are reused rather than
// allocated again.
var (
	chunkPool sync.Pool // of *cacheSlab
	idxPool   wire.Pool[int32]
)

// Cache is one reader's software cache of records from a forest of flat
// trees that live behind a bulk reader (a PPM global shared array, say).
// Every record is fetched through the reader on its first touch, with
// exactly DecodeNodeRuns' range reads, and served from the cache after
// that: records go into an append-only slab of fixed-size chunks, which
// never move, and each tree keeps an index from record number to slab
// position. A hit is an indexed load and copies nothing; a miss allocates
// only when a chunk fills up or a tree's index has to grow and no
// released one is pooled.
//
// A Cache and its trees belong to one reader and are not safe for
// concurrent use. It is valid for as long as the forest is immutable (one
// phase, in a PPM program), and its record pointers until Release.
type Cache struct {
	read   func(lo, hi int, dst []float64)
	chunks []*cacheSlab
	trees  []*CachedTree
	n      int                 // records stored
	hdr    [slotBodies]float64 // where a miss lands its header run
}

// NewCache returns an empty cache that fills misses through read, which
// must copy elements [lo, hi) of the forest's address space into dst.
func NewCache(read func(lo, hi int, dst []float64)) *Cache {
	return &Cache{read: read}
}

// Release passes the cache's chunks and its trees' indexes on to the next
// cache that misses and empties the cache: every record pointer its trees
// returned is invalid from here on. The cache and its trees stay usable,
// and fetch each record again on its first touch, so they may serve the
// forest of a later phase.
func (c *Cache) Release() {
	for i, ch := range c.chunks {
		chunkPool.Put(ch)
		c.chunks[i] = nil
	}
	c.chunks, c.n = c.chunks[:0], 0
	for _, t := range c.trees {
		idxPool.Put(t.idx)
		t.idx = nil
	}
}

// CachedTree is the Source of one tree of a Cache's forest.
type CachedTree struct {
	c       *Cache
	off     int
	records int
	// idx[i] is 1 + the slab position of record i, or 0 if it has not been
	// fetched. It grows on demand up to records entries, so it costs 4
	// bytes per record up to the highest one touched (its backing, from
	// idxPool, is rounded up to a pool class).
	idx []int32
}

// Tree returns the Source of the flat tree that starts at element off of
// the reader's address space and has room for at most records records.
func (c *Cache) Tree(off, records int) *CachedTree {
	t := &CachedTree{c: c, off: off, records: records}
	c.trees = append(c.trees, t)
	return t
}

// Node implements Source. Pointers stay valid until the Cache's Release.
func (t *CachedTree) Node(i int) *FlatNode {
	if uint(i) < uint(len(t.idx)) {
		if p := t.idx[i]; p != 0 {
			return &t.c.chunks[(p-1)>>cacheChunkShift][(p-1)&(cacheChunk-1)]
		}
	}
	return t.fetch(i)
}

func (t *CachedTree) fetch(i int) *FlatNode {
	if uint(i) >= uint(t.records) {
		panic(fmt.Sprintf("octree: record %d outside a tree of at most %d", i, t.records))
	}
	if i >= len(t.idx) {
		n := 2 * len(t.idx)
		if n < i+1 {
			n = i + 1
		}
		if n < 16 {
			n = 16
		}
		if n > t.records {
			n = t.records
		}
		idx := t.idx
		if n > cap(idx) {
			idx = append(idxPool.Get(n), t.idx...)
			idxPool.Put(t.idx)
		}
		idx = idx[:n]
		clear(idx[len(t.idx):]) // a pooled index holds another tree's
		t.idx = idx
	}
	c := t.c
	if c.n == len(c.chunks)*cacheChunk {
		ch, _ := chunkPool.Get().(*cacheSlab)
		if ch == nil {
			ch = new(cacheSlab)
		} else {
			// As zeroed as a new one: a record decodes only its own
			// bodies, and a released slot may hold more.
			clear(ch[:])
		}
		c.chunks = append(c.chunks, ch)
	}
	nd := &c.chunks[c.n>>cacheChunkShift][c.n&(cacheChunk-1)]
	decodeNodeRuns(c.read, &c.hdr, t.off, i, nd)
	c.n++
	t.idx[i] = int32(c.n)
	return nd
}

// Accel accumulates the acceleration at point (px, py, pz) due to the
// tree provided by src, using opening angle theta and Plummer softening
// eps. It returns the acceleration components and the number of body/cell
// interactions evaluated (for flop accounting: roughly 20 flops each).
func Accel(src Source, px, py, pz, theta, eps float64) (ax, ay, az float64, interactions int64) {
	eps2 := eps * eps
	var stack [stackCap]int32
	sp := 0
	stack[sp] = 0
	sp++
	for sp > 0 {
		sp--
		nd := src.Node(int(stack[sp]))
		if nd.Mass == 0 {
			continue
		}
		dx, dy, dz := nd.ComX-px, nd.ComY-py, nd.ComZ-pz
		d2 := dx*dx + dy*dy + dz*dz
		size := 2 * nd.Half
		if size*size < theta*theta*d2 {
			// Cell is far enough: use its multipole (monopole) moment.
			inv := 1 / math.Sqrt(d2+eps2)
			f := nd.Mass * inv * inv * inv
			ax += f * dx
			ay += f * dy
			az += f * dz
			interactions++
			continue
		}
		isLeaf := true
		for c := 0; c < 8; c++ {
			if ci := nd.Child[c]; ci >= 0 {
				isLeaf = false
				if sp >= len(stack) {
					panic("octree: traversal stack overflow")
				}
				stack[sp] = ci
				sp++
			}
		}
		if isLeaf {
			for k := 0; k < int(nd.NBody); k++ {
				bx, by, bz, bm := nd.Bodies[k*4], nd.Bodies[k*4+1], nd.Bodies[k*4+2], nd.Bodies[k*4+3]
				if bm == 0 {
					continue
				}
				dx, dy, dz := bx-px, by-py, bz-pz
				d2 := dx*dx + dy*dy + dz*dz
				inv := 1 / math.Sqrt(d2+eps2)
				f := bm * inv * inv * inv
				ax += f * dx
				ay += f * dy
				az += f * dz
				interactions++
			}
		}
	}
	return ax, ay, az, interactions
}

// DirectAccel computes the exact O(n) acceleration at (px, py, pz) from
// all bodies (the O(n^2) reference when called per body).
func DirectAccel(bodies []Body, px, py, pz, eps float64) (ax, ay, az float64) {
	eps2 := eps * eps
	for _, b := range bodies {
		dx, dy, dz := b.X-px, b.Y-py, b.Z-pz
		d2 := dx*dx + dy*dy + dz*dz
		inv := 1 / math.Sqrt(d2+eps2)
		f := b.M * inv * inv * inv
		ax += f * dx
		ay += f * dy
		az += f * dz
	}
	return ax, ay, az
}

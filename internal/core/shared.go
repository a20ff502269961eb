package core

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"ppm/internal/mp"
	"ppm/internal/partition"
	"ppm/internal/wire"
)

// Elem constrains shared-array element types (fixed-size numerics, so
// modeled byte counts are honest). It is the same constraint the
// messaging layer uses.
type Elem = mp.Elem

// writeRec is one buffered run of shared-array updates: n consecutive
// elements starting at lo. A scalar write is the n == 1, off < 0 case
// with its value inline; block writes (and scalar writes coalesced into
// them) keep their values in the owning buffer's arena at off. Run-length
// records are what lets the commit path move a whole block with one copy
// instead of one record per element. A record is 32 bytes for every
// element type, a power of two, so that its chunks recycle through a
// wire.Pool: n and off count within one lane's phase (2^31 items at
// most, as laneSeg's fields), and the add flag is the top bit of the
// writer id (see recWriter).
type writeRec[T Elem] struct {
	lo     int
	n      int32
	off    int32 // arena offset of the run's values; -1 for inline val
	val    T     // inline value when off < 0 (then n == 1)
	writer int64 // recWriter(wid, add)
}

// recAdd is a record's add flag, in its writer word: a writer id is
// (node<<32)|vpRank with node below 2^31, so the top bit is free.
const recAdd int64 = math.MinInt64

// recWriter packs the writer id wid and the add flag into one word.
func recWriter(wid int64, add bool) int64 {
	if add {
		return wid | recAdd
	}
	return wid
}

// stage returns elements [lo, lo+n) of r as a stageRec whose values are
// vals, a slice of the arena (nil for an inline scalar).
func (r *writeRec[T]) stage(lo, n int, vals []T) stageRec[T] {
	return stageRec[T]{lo: lo, n: n, vals: vals, val: r.val, add: r.writer < 0, writer: r.writer &^ recAdd}
}

// stageRec is one run a node's VPs wrote to the node's own partition of
// a Global, staged at a global-phase commit: the same shape as writeRec but
// with the values resolved to a concrete slice (runs may alias the source
// buffer's arena — safe, because the node applies its stage before the
// commit ends and any VP buffers new writes). Runs for other nodes'
// partitions are not staged: they travel in the wire commit grammar.
type stageRec[T Elem] struct {
	lo     int
	n      int
	vals   []T // nil for an inline scalar
	val    T
	add    bool
	writer int64
}

// elemUpdaters is the strict-mode record for one element within a
// phase: the VP that last plain-wrote it and the first VP that added to
// it (-1 when no update of that kind happened yet). One of each suffices
// to detect every conflict class; full attribution for elements that do
// conflict accumulates in the run's conflictLog.
type elemUpdaters struct {
	writeBy int64
	addBy   int64
}

// conflictTracker is the strict-mode (StrictWrites) bookkeeping for one
// shared array: per destination node, the updaters of every element
// touched in the current phase. It is allocated lazily at the first
// strict commit, so runs without StrictWrites pay nothing for it.
type conflictTracker struct {
	seq []int64
	m   []map[int]elemUpdaters
}

func newConflictTracker(nodes int) *conflictTracker {
	return &conflictTracker{seq: make([]int64, nodes), m: make([]map[int]elemUpdaters, nodes)}
}

// check validates one resolved run against the phase's previous
// updaters, element by element (run-length records keep strict mode's
// per-element semantics). Conflicts are plain writes to one element by
// different VPs, or a plain write and an add to one element by
// different VPs; adds combine with adds freely. Every conflict is
// recorded in log with full writer attribution; the returned error is
// the run's first (the abort signal).
func (ct *conflictTracker) check(log *conflictLog, name string, node int, phaseSeq int64, lo, n int, writer int64, add bool) error {
	if ct.seq[node] != phaseSeq || ct.m[node] == nil {
		ct.m[node] = make(map[int]elemUpdaters)
		ct.seq[node] = phaseSeq
	}
	mm := ct.m[node]
	var firstErr error
	for i := lo; i < lo+n; i++ {
		rec, ok := mm[i]
		if !ok {
			rec = elemUpdaters{writeBy: -1, addBy: -1}
		}
		prev := int64(-1)
		prevAdd := false
		if add {
			if rec.writeBy >= 0 && rec.writeBy != writer {
				prev = rec.writeBy
			}
			if rec.addBy < 0 {
				rec.addBy = writer
			}
		} else {
			switch {
			case rec.writeBy >= 0 && rec.writeBy != writer:
				prev = rec.writeBy
			case rec.addBy >= 0 && rec.addBy != writer:
				prev, prevAdd = rec.addBy, true
			}
			rec.writeBy = writer
		}
		mm[i] = rec
		if prev < 0 {
			continue
		}
		c := log.note(name, node, i, writerRef(prev, prevAdd), writerRef(writer, add))
		if firstErr == nil {
			firstErr = fmt.Errorf("core: conflicting writes to %s[%d] in one phase: %v and %v",
				name, i, c.Writers[0], writerRef(writer, add))
		}
	}
	return firstErr
}

// allocArray registers a shared array collectively: every node calls the
// allocator in the same program order; the first caller constructs, the
// rest attach. make constructs the concrete array.
func allocArray[A registeredArray](rt *Runtime, name string, mk func(id int) A) A {
	gs := rt.gs
	if rt.inDo {
		panic(fmt.Sprintf("core: alloc of %q must happen at node level, not inside Do", name))
	}
	// The registry (gs.arrays) is cross-node host state mutated outside
	// any phase window, so registration holds the cluster turn: under
	// the parallel scheduler concurrent allocating nodes serialize in
	// sequential order ("first caller constructs" stays deterministic);
	// under the sequential scheduler Serial is free.
	// Distributed mode: each process registers for itself (SPMD program
	// order keeps ids aligned across processes), no turn to take.
	var out A
	register := func(f func()) {
		if rt.proc == nil {
			f()
			return
		}
		rt.proc.Serial(f)
	}
	register(func() {
		if gs.allocSeq == nil {
			gs.allocSeq = make([]int, gs.nodes)
		}
		seq := gs.allocSeq[rt.node]
		if seq >= maxKeyArrays {
			panic(fmt.Sprintf("core: alloc of %q: a run holds at most %d shared arrays", name, maxKeyArrays))
		}
		gs.allocSeq[rt.node]++
		if seq == len(gs.arrays) {
			out = mk(seq)
			gs.arrays = append(gs.arrays, out)
			return
		}
		if seq > len(gs.arrays) {
			panic(fmt.Sprintf("core: node %d allocation sequence diverged at %q", rt.node, name))
		}
		a, ok := gs.arrays[seq].(A)
		if !ok || gs.arrays[seq].label() != name {
			panic(fmt.Sprintf("core: node %d allocated %q where other nodes allocated %q — SPMD allocation order diverged",
				rt.node, name, gs.arrays[seq].label()))
		}
		out = a
	})
	return out
}

// arrayCore is what a Global and a Node array share: identity, element
// size, strict-mode tracking, the pool their storage and their VPs' write
// arenas come from, and the run apply of both commit paths.
type arrayCore[T Elem] struct {
	gs   *globalState
	id   int
	name string
	n    int
	es   int
	// strict-mode conflict tracking, allocated at first strict commit.
	ct *conflictTracker
	// store is the process-wide pool of T storage: the array's partition
	// or instances and its fetched lines are drawn from it (storage) and
	// go back when the run succeeds (release), which sets ended; the
	// arenas of its VPs' write buffers grow through it (wbuf.room). From
	// then on every access panics naming the array (checkLive): the
	// storage may hold another run's data by then.
	store *wire.Pool[T]
	ended bool
	// scratch[node] is node's element scratch for applying wire runs (see
	// applyWire): under the simulator every node applies into this one
	// object, concurrently under the parallel scheduler.
	scratch [][]T
	// snap[node] is, under StrictWrites only, a copy of node's storage as
	// its last commit (or the start of the Do) left it (see snapImage).
	snap [][]T
}

func newArrayCore[T Elem](rt *Runtime, id int, name string, n int) arrayCore[T] {
	c := arrayCore[T]{gs: rt.gs, id: id, name: name, n: n, es: mp.SizeOf[T](),
		store: poolFor[wire.Pool[T]](), scratch: make([][]T, rt.gs.nodes)}
	if rt.gs.opt.StrictWrites {
		c.snap = make([][]T, rt.gs.nodes)
	}
	return c
}

// snapImage copies node's storage dst aside, for changed to compare with.
func (c *arrayCore[T]) snapImage(node int, dst []T) {
	c.snap[node] = append(c.snap[node][:0], dst...)
}

// changed appends to out the index of every element of node's storage
// dst, which holds element i at dst[i-lo0], that differs from the copy
// snapImage took. A NaN stays equal to a NaN.
func (c *arrayCore[T]) changed(node int, dst []T, lo0 int, out []int) []int {
	for i, old := range c.snap[node] {
		if v := dst[i]; v != old && (v == v || old == old) {
			out = append(out, lo0+i)
		}
	}
	return out
}

// storage returns n zeroed elements drawn from the array's pool: the
// arrays promise zeroed storage, and no byte of an earlier run may show.
// A fresh allocation is zeroed already; an empty one draws nothing.
func (c *arrayCore[T]) storage(n int) []T {
	if n == 0 {
		return []T{}
	}
	if b := c.store.Pooled(n); b != nil {
		clear(b)
		return b
	}
	return c.store.Get(n)[:n]
}

// checkLive panics if the array's run has ended (see store). The panic
// is out of line, so that the test inlines.
func (c *arrayCore[T]) checkLive(kind, op string) {
	if c.ended {
		c.endedPanic(kind, op)
	}
}

func (c *arrayCore[T]) endedPanic(kind, op string) {
	panic(fmt.Sprintf("core: %s(%q).%s after its run ended", kind, c.name, op))
}

// Len returns the array's length: a Global's global length, a Node
// array's per-node length.
func (c *arrayCore[T]) Len() int { return c.n }

// Name returns the allocation name.
func (c *arrayCore[T]) Name() string { return c.name }

// label implements registeredArray.
func (c *arrayCore[T]) label() string { return c.name }

// elemBytes implements registeredArray.
func (c *arrayCore[T]) elemBytes() int { return c.es }

// applyRun applies one resolved run to dst, node's storage of the array,
// which holds element i at dst[i-lo0].
func (c *arrayCore[T]) applyRun(dst []T, lo0, node int, strict bool, phaseSeq int64, r *stageRec[T]) error {
	var err error
	if strict {
		if c.ct == nil {
			c.ct = newConflictTracker(c.gs.nodes)
		}
		err = c.ct.check(&c.gs.conflicts, c.name, node, phaseSeq, r.lo, r.n, r.writer, r.add)
	}
	lo := r.lo - lo0
	switch {
	case r.vals == nil:
		if r.add {
			dst[lo] += r.val
		} else {
			dst[lo] = r.val
		}
	case r.add:
		dst := dst[lo : lo+r.n]
		for i, v := range r.vals {
			dst[i] += v
		}
	default:
		copy(dst[lo:lo+r.n], r.vals)
	}
	return err
}

// applyWire applies nRuns runs of a commit-grammar block to dst, node's
// storage of the array from element lo0 on, through applyRun. strictErr
// carries strict-mode conflicts (noted, not fatal); err is protocol
// corruption (fatal), and a run that leaves dst is that: it has nowhere to
// land. The values are decoded into node's scratch, which persists across
// commits.
func (c *arrayCore[T]) applyWire(dst []T, lo0, node int, strict bool, phaseSeq int64, rd *wire.CommitReader, nRuns int) (elems int, strictErr, err error) {
	for i := 0; i < nRuns; i++ {
		h, raw, err := rd.Run(c.es)
		if err != nil {
			return elems, strictErr, err
		}
		if phi := lo0 + len(dst); h.N < 0 || h.Lo < lo0 || h.Lo > phi || h.N > phi-h.Lo {
			return elems, strictErr, fmt.Errorf("core: commit run for %s[%d:%d) outside node %d's partition [%d:%d)", c.name, h.Lo, h.Lo+h.N, node, lo0, phi)
		}
		if h.N == 0 {
			// No writer sends one, and applyRun would take its nil values
			// for an inline scalar.
			return elems, strictErr, fmt.Errorf("core: empty commit run for %s at %d", c.name, h.Lo)
		}
		if cap(c.scratch[node]) < h.N {
			c.scratch[node] = make([]T, h.N)
		}
		vals := c.scratch[node][:h.N]
		mp.DecodeElemsInto(vals, raw)
		sr := stageRec[T]{lo: h.Lo, n: h.N, vals: vals, add: h.Add, writer: h.Writer}
		if e := c.applyRun(dst, lo0, node, strict, phaseSeq, &sr); e != nil && strictErr == nil {
			strictErr = e
		}
		elems += h.N
	}
	return elems, strictErr, nil
}

// restoreImage reinstalls a checkpoint block holding node's image dst,
// which starts at element lo0, through applyWire (non-strict: a checkpoint
// is committed state, not a phase's writes). The block must be exactly
// what encodeImage wrote, one plain run of the whole image by node (none
// when it is empty): anything else would leave part of it as it was.
func (c *arrayCore[T]) restoreImage(dst []T, lo0, node int, rd *wire.CommitReader, nRuns int) error {
	if len(dst) == 0 && nRuns == 0 {
		return nil
	}
	if len(dst) == 0 || nRuns != 1 {
		return fmt.Errorf("core: checkpoint block for %s holds %d runs, not node %d's image [%d:%d)", c.name, nRuns, node, lo0, lo0+len(dst))
	}
	peek := *rd
	h, _, _ := peek.Run(c.es)
	if _, _, err := c.applyWire(dst, lo0, node, false, 0, rd, 1); err != nil {
		return err
	}
	if h != (wire.RunHeader{Lo: lo0, N: len(dst), Writer: int64(node)}) {
		return fmt.Errorf("core: checkpoint run %+v for %s is not node %d's image [%d:%d)", h, c.name, node, lo0, lo0+len(dst))
	}
	return nil
}

// encodeImage appends node's image dst, which starts at element lo0, as a
// checkpoint block: one commit-grammar run (an empty image is a zero-run
// block, kept so restore walks every array uniformly).
func (c *arrayCore[T]) encodeImage(dst []T, lo0, node int, buf []byte) []byte {
	if len(dst) == 0 {
		return wire.AppendBlockHeader(buf, c.id, 0)
	}
	buf = wire.AppendBlockHeader(buf, c.id, 1)
	buf = wire.AppendRunHeader(buf, wire.RunHeader{Lo: lo0, N: len(dst), Writer: int64(node)})
	return mp.AppendElems(buf, dst)
}

// Global is a globally shared array: one logical array of n elements,
// block-distributed across the cluster's nodes through virtual shared
// memory (the paper's PPM_global_shared). Virtual processors access it
// with Read/Write/Add (or the block forms) inside phases; node-level
// code uses Local/At for setup and result extraction. A Global and any
// slice Local returned are valid until the Run or RunDist that allocated
// it returns: its storage then goes back to the pool (arrayCore.store).
type Global[T Elem] struct {
	arrayCore[T]
	part partition.Block
	// bnd is the partition as a table: node p owns [bnd[p], bnd[p+1]).
	// The access paths test an index against the calling node's two
	// entries before anything else, so a local access divides nothing.
	// release zeroes it, so that after the run every index takes the
	// remote path, where an ended array is caught at no cost to the
	// local accesses.
	bnd []int
	// base holds elements [off, off+len(base)) in place. Under the
	// simulator every node shares this object, so that is the whole array
	// and off is 0; a mesh rank holds its own partition and nothing else.
	base []T
	off  int
	// lines is a mesh rank's image of what it fetched from other ranks'
	// partitions: slot k holds elements [k<<lshift, (k+1)<<lshift), a
	// fetchLineBytes transfer line, drawn from store (under dmu) at the
	// first install into it and kept for the run. Which of a line's
	// elements are valid is the cover's business alone: nothing clears a
	// line between phases. A line holds a power of two of elements (es is 1, 4 or 8),
	// so i>>lshift and i&lmask locate element i. nil under the simulator.
	lines  [][]T
	lshift uint
	lmask  int
	// stage[node] holds the runs node's VPs wrote to node's own partition
	// this phase; node applies them in its commit.
	stage [][]stageRec[T]
	// wout[src][dst] is the runs src's VPs wrote to dst's partition this
	// phase, already in the wire commit grammar (wruns[src][dst] of them),
	// appended at flush in VP-then-program order; encodeStagedWire puts a
	// block header in front and empties it. The simulator has a row per
	// node, a mesh rank its own only. Each buffer is drawn from
	// wireStaging at allocation and handed back when the run succeeds
	// (release).
	wout  [][]*[]byte
	wruns [][]int
	// Distributed mode: dcov (under dmu) is the set of index ranges of
	// other ranks' partitions whose elements in lines are valid this phase
	// (every remotely fetched range). dpend is the set currently being
	// fetched by some VP, and dcnd (lazily built) fans fetched ranges out
	// to the VPs waiting on them. See distFetch in dist.go.
	dmu   sync.Mutex
	dcov  []intRun
	dpend []intRun
	dcnd  *sync.Cond
}

// AllocGlobal allocates a globally shared array of n elements, block-
// distributed over the nodes. Collective: every node must call it in the
// same program order with the same name and size.
func AllocGlobal[T Elem](rt *Runtime, name string, n int) *Global[T] {
	if n < 0 {
		panic(fmt.Sprintf("core: AllocGlobal(%q, %d): negative size", name, n))
	}
	if n > maxKeyLen {
		panic(fmt.Sprintf("core: AllocGlobal(%q, %d): more than 2^%d elements, the most a read key indexes", name, n, keyIdxBits))
	}
	g := allocArray(rt, name, func(id int) *Global[T] {
		nodes := rt.gs.nodes
		g := &Global[T]{
			arrayCore: newArrayCore[T](rt, id, name, n),
			part:      partition.NewBlock(n, nodes),
			stage:     make([][]stageRec[T], nodes),
			wout:      make([][]*[]byte, nodes),
			wruns:     make([][]int, nodes),
		}
		g.bnd = append(g.part.Displs(), n)
		for src := range g.wout {
			if rt.gs.dist == nil || src == rt.node {
				g.wout[src] = takeWire(nodes, src)
				g.wruns[src] = make([]int, nodes)
			}
		}
		if rt.gs.dist == nil {
			g.base = g.storage(n)
			return g
		}
		g.off = g.bnd[rt.node]
		g.base = g.storage(g.bnd[rt.node+1] - g.off)
		line := fetchLineBytes / g.es
		g.lshift = uint(bits.TrailingZeros(uint(line)))
		g.lmask = line - 1
		g.lines = make([][]T, (n+line-1)/line)
		return g
	})
	// Zeroing the local partition costs streaming time.
	rt.ChargeMem(int64(g.part.Size(rt.node) * g.es))
	return g
}

// span returns node's partition in place and the index of its first
// element.
func (g *Global[T]) span(node int) ([]T, int) {
	lo, hi := g.bnd[node], g.bnd[node+1]
	return g.base[lo-g.off : hi-g.off : hi-g.off], lo
}

// Owner returns the node owning element i.
func (g *Global[T]) Owner(i int) int { return g.part.Owner(i) }

// OwnerRange returns the half-open index range owned by the calling node.
func (g *Global[T]) OwnerRange(rt *Runtime) (lo, hi int) { return g.part.Range(rt.node) }

// Local returns the calling node's partition as a mutable slice. It is a
// node-level escape hatch for initialization and result extraction (the
// paper's casting utilities between node space and global space); it must
// not be used while any Do is active.
func (g *Global[T]) Local(rt *Runtime) []T {
	if rt.inDo {
		panic(fmt.Sprintf("core: Global(%q).Local while Do is active", g.name))
	}
	g.checkLive("Global", "Local")
	part, _ := g.span(rt.node)
	return part
}

// At returns element i at node level (setup/extraction only). Reading a
// remote element outside any phase is allowed for result extraction after
// phases have committed: it sees every phase committed so far. On a mesh
// the owner answers it once it has applied the phase before the read
// (DESIGN.md §4.9).
func (g *Global[T]) At(rt *Runtime, i int) T {
	if rt.inDo {
		panic(fmt.Sprintf("core: Global(%q).At while Do is active", g.name))
	}
	g.checkLive("Global", "At")
	if gs := g.gs; gs.dist != nil {
		if owner := g.part.Owner(i); owner != rt.node {
			// The owner may be waiting in a read of ours: serve peers
			// while this one waits. Nothing writes partitions meanwhile,
			// since the only node-level writer is this goroutine.
			if gs.memHeld {
				gs.memMu.Unlock()
				defer gs.memMu.Lock()
			}
			// Result-extraction loops usually walk whole remote
			// partitions; fetch the owner's full block once and serve the
			// rest of the loop from the cache.
			lo, hi := g.part.Range(owner)
			g.distFetch(owner, lo, hi)
			return g.lines[i>>g.lshift][i&g.lmask]
		}
	}
	return g.base[i-g.off]
}

// Read returns element i as observed at the beginning of the current
// phase. Must be called inside a phase. Remote reads require a global
// phase and are accounted for bundling.
func (g *Global[T]) Read(vp *VP, i int) T {
	vp.accessCheck(g.id, g.name, "Read", i, i+1, false)
	vp.lane.reads++
	vp.charge += vp.d.sharedReadCost
	if node := vp.d.node; i < g.bnd[node] || i >= g.bnd[node+1] {
		return g.readRemote(vp, i)
	}
	return g.base[i-g.off]
}

// readRemote is Read's path for an index outside the calling node's
// partition: out of range altogether, or owned by another node. The value
// comes from the line image on a mesh rank and from the shared array under
// the simulator.
func (g *Global[T]) readRemote(vp *VP, i int) T {
	g.checkLive("Global", "Read")
	if i < 0 || i >= g.n {
		panic(fmt.Sprintf("core: Global(%q).Read(%d): index out of range [0,%d)", g.name, i, g.n))
	}
	node := vp.d.node
	owner := g.part.Owner(i)
	if vp.phaseKind != phaseGlobal {
		panic(fmt.Sprintf("core: Global(%q).Read(%d): remote access (owner %d) inside a node phase on node %d",
			g.name, i, owner, node))
	}
	vp.noteRemoteRead(g.id, i, owner, g.es)
	if g.gs.dist != nil {
		g.distFetch(owner, i, i+1)
		return g.lines[i>>g.lshift][i&g.lmask]
	}
	return g.base[i]
}

// Write sets element i to v, taking effect after the end of the current
// phase (last writer in (node, VP, program) order wins when several VPs
// write the same element; use StrictWrites to flag that).
func (g *Global[T]) Write(vp *VP, i int, v T) { g.put(vp, i, v, false) }

// Add accumulates v into element i at the end of the current phase.
// Unlike Write, concurrent Adds to one element combine (addition is the
// paper's utility-reduction case for shared updates).
func (g *Global[T]) Add(vp *VP, i int, v T) { g.put(vp, i, v, true) }

func (g *Global[T]) put(vp *VP, i int, v T, add bool) {
	vp.accessCheck(g.id, g.name, "Write", i, i+1, true)
	if i < 0 || i >= g.n {
		panic(fmt.Sprintf("core: Global(%q).Write(%d): index out of range [0,%d)", g.name, i, g.n))
	}
	vp.lane.writes++
	vp.charge += vp.d.sharedWriteCost
	if node := vp.d.node; vp.phaseKind != phaseGlobal && (i < g.bnd[node] || i >= g.bnd[node+1]) {
		g.checkLive("Global", "Write") // every index misses an ended bnd
		panic(fmt.Sprintf("core: Global(%q).Write(%d): remote access (owner %d) inside a node phase on node %d",
			g.name, i, g.part.Owner(i), node))
	}
	bufFor[T](vp, g).push(i, v, add, vp.wid())
}

// ReadBlock copies elements [lo, hi) into dst under phase semantics —
// the array-section form of Read for contiguous access. It validates
// once, copies with one memmove, and records remote traffic as interval
// runs instead of per-element entries; the modeled per-element costs are
// identical to hi-lo scalar Reads.
func (g *Global[T]) ReadBlock(vp *VP, lo, hi int, dst []T) {
	vp.accessCheck(g.id, g.name, "Read", lo, hi, false)
	if lo < 0 || hi > g.n || lo > hi {
		panic(fmt.Sprintf("core: Global(%q).ReadBlock[%d:%d] out of [0,%d)", g.name, lo, hi, g.n))
	}
	if len(dst) < hi-lo {
		panic(fmt.Sprintf("core: Global(%q).ReadBlock: dst holds %d of %d elements", g.name, len(dst), hi-lo))
	}
	if lo == hi {
		return
	}
	n := hi - lo
	vp.lane.reads += int64(n)
	vp.chargeEach(vp.d.sharedReadCost, n)
	if node := vp.d.node; lo < g.bnd[node] || hi > g.bnd[node+1] {
		g.readBlockRemote(vp, lo, hi, dst)
		return
	}
	copy(dst, g.base[lo-g.off:hi-g.off])
}

// readBlockRemote is ReadBlock's path for a block that leaves the calling
// node's partition: it splits [lo, hi) by owner, records (and, on the
// mesh, fetches) every remote stretch, and copies the block out.
func (g *Global[T]) readBlockRemote(vp *VP, lo, hi int, dst []T) {
	g.checkLive("Global", "ReadBlock")
	node := vp.d.node
	for s := lo; s < hi; {
		owner, e := g.ownerSpan(s)
		if e > hi {
			e = hi
		}
		if owner != node {
			if vp.phaseKind != phaseGlobal {
				panic(fmt.Sprintf("core: Global(%q).Read(%d): remote access (owner %d) inside a node phase on node %d",
					g.name, s, owner, node))
			}
			vp.noteRemoteRun(g.id, s, e, owner, g.es)
			if g.gs.dist != nil {
				g.distFetch(owner, s, e)
			}
		}
		s = e
	}
	if g.gs.dist == nil {
		copy(dst, g.base[lo:hi])
		return
	}
	plo, phi := g.bnd[node], g.bnd[node+1]
	if k := lo >> g.lshift; k == (hi-1)>>g.lshift && (hi <= plo || lo >= phi) {
		// A remote block inside one line (a halo row's few columns).
		copy(dst, g.lines[k][lo&g.lmask:][:hi-lo])
		return
	}
	// Piecewise: the partition in place, the rest line by line.
	for s := lo; s < hi; {
		var n int
		if s >= plo && s < phi {
			n = copy(dst[:min(hi, phi)-s], g.base[s-g.off:])
		} else {
			e := min(hi, (s>>g.lshift+1)<<g.lshift)
			if s < plo {
				e = min(e, plo)
			}
			n = copy(dst[:e-s], g.lines[s>>g.lshift][s&g.lmask:])
		}
		dst = dst[n:]
		s += n
	}
}

// WriteBlock writes src over elements [lo, lo+len(src)), committing at
// the end of the current phase — the array-section form of Write. The
// run is copied into the VP's write buffer as a single record and
// applied with copy at commit, so the caller may reuse src at once.
func (g *Global[T]) WriteBlock(vp *VP, lo int, src []T) { g.putBlock(vp, lo, src, false, "WriteBlock") }

// AddBlock accumulates src into elements [lo, lo+len(src)) at the end of
// the current phase — the array-section form of Add. Like WriteBlock it
// copies src before returning; the caller may reuse src at once.
func (g *Global[T]) AddBlock(vp *VP, lo int, src []T) { g.putBlock(vp, lo, src, true, "AddBlock") }

func (g *Global[T]) putBlock(vp *VP, lo int, src []T, add bool, op string) {
	vp.accessCheck(g.id, g.name, "Write", lo, lo+len(src), true)
	g.checkLive("Global", op)
	if lo < 0 || lo+len(src) > g.n {
		panic(fmt.Sprintf("core: Global(%q).%s[%d:%d] out of [0,%d)", g.name, op, lo, lo+len(src), g.n))
	}
	if len(src) == 0 {
		return
	}
	n := len(src)
	vp.lane.writes += int64(n)
	vp.chargeEach(vp.d.sharedWriteCost, n)
	if node := vp.d.node; vp.phaseKind != phaseGlobal && (lo < g.bnd[node] || lo+n > g.bnd[node+1]) {
		// Report the block's first remote element.
		s := lo
		if s >= g.bnd[node] && s < g.bnd[node+1] {
			s = g.bnd[node+1]
		}
		panic(fmt.Sprintf("core: Global(%q).Write(%d): remote access (owner %d) inside a node phase on node %d",
			g.name, s, g.part.Owner(s), node))
	}
	bufFor[T](vp, g).pushRun(lo, src, add, vp.wid())
}

// localElems implements registeredArray: the size of node's partition.
func (g *Global[T]) localElems(node int) int { return g.part.Size(node) }

// snapLocal implements registeredArray: copy node's partition aside.
func (g *Global[T]) snapLocal(node int) {
	dst, _ := g.span(node)
	g.snapImage(node, dst)
}

// appendChanged implements registeredArray: the elements of node's
// partition that differ from the copy snapLocal took.
func (g *Global[T]) appendChanged(node int, out []int) []int {
	dst, lo0 := g.span(node)
	return g.changed(node, dst, lo0, out)
}

// ownerSpan implements registeredArray: the owner of element i and the
// end of that owner's partition, for splitting interval runs by owner.
func (g *Global[T]) ownerSpan(i int) (owner, end int) {
	owner = g.part.Owner(i)
	return owner, g.bnd[owner+1]
}

// applyStaged implements registeredArray: apply the runs node's VPs
// staged for node's own partition this phase, in VP and program order, and
// empty the stage.
func (g *Global[T]) applyStaged(node int, strict bool, phaseSeq int64) (elems int, err error) {
	recs := g.stage[node]
	g.stage[node] = recs[:0]
	dst, lo0 := g.span(node)
	for i := range recs {
		elems += recs[i].n
		if e := g.applyRun(dst, lo0, node, strict, phaseSeq, &recs[i]); e != nil && err == nil {
			err = e
		}
	}
	return elems, err
}

// Node is a node-shared array: as in the paper's PPM_node_shared, the
// declaration yields one independent instance per node, living in that
// node's physical shared memory. VPs of a node access their node's
// instance with phase semantics; there is no cross-node traffic. Valid,
// with any slice Local returned, until its run returns, like a Global.
type Node[T Elem] struct {
	arrayCore[T]
	// base[node] is node's instance. Under the simulator every node shares
	// this object and all are present; a mesh rank holds only its own.
	base [][]T
}

// AllocNode allocates a node-shared array of n elements on every node.
// Collective in the same sense as AllocGlobal.
func AllocNode[T Elem](rt *Runtime, name string, n int) *Node[T] {
	if n < 0 {
		panic(fmt.Sprintf("core: AllocNode(%q, %d): negative size", name, n))
	}
	a := allocArray(rt, name, func(id int) *Node[T] {
		a := &Node[T]{
			arrayCore: newArrayCore[T](rt, id, name, n),
			base:      make([][]T, rt.gs.nodes),
		}
		for i := range a.base {
			if rt.gs.dist == nil || i == rt.node {
				a.base[i] = a.storage(n)
			}
		}
		return a
	})
	rt.ChargeMem(int64(n * a.es))
	return a
}

// Local returns the calling node's instance as a mutable slice (node-
// level setup/extraction; not while Do is active).
func (a *Node[T]) Local(rt *Runtime) []T {
	if rt.inDo {
		panic(fmt.Sprintf("core: Node(%q).Local while Do is active", a.name))
	}
	a.checkLive("Node", "Local")
	return a.base[rt.node]
}

// Read returns element i of the calling node's instance as of the
// beginning of the current phase.
func (a *Node[T]) Read(vp *VP, i int) T {
	vp.accessCheck(a.id, a.name, "Read", i, i+1, false)
	// The instance is a.n long until release empties it, so an ended
	// array fails the one bounds test Read makes anyway.
	inst := a.base[vp.d.node]
	if uint(i) >= uint(len(inst)) {
		a.checkLive("Node", "Read")
		panic(fmt.Sprintf("core: Node(%q).Read(%d): index out of range [0,%d)", a.name, i, a.n))
	}
	vp.lane.reads++
	vp.charge += vp.d.sharedReadCost
	return inst[i]
}

// Write sets element i of the node's instance at the end of the phase.
func (a *Node[T]) Write(vp *VP, i int, v T) { a.put(vp, i, v, false) }

// Add accumulates v into element i at the end of the phase.
func (a *Node[T]) Add(vp *VP, i int, v T) { a.put(vp, i, v, true) }

func (a *Node[T]) put(vp *VP, i int, v T, add bool) {
	vp.accessCheck(a.id, a.name, "Write", i, i+1, true)
	if i < 0 || i >= a.n {
		panic(fmt.Sprintf("core: Node(%q).Write(%d): index out of range [0,%d)", a.name, i, a.n))
	}
	vp.lane.writes++
	vp.charge += vp.d.sharedWriteCost
	nodeBufFor[T](vp, a).push(i, v, add, vp.wid())
}

// ReadBlock copies elements [lo, hi) of the node's instance into dst
// under phase semantics — the array-section form of Read.
func (a *Node[T]) ReadBlock(vp *VP, lo, hi int, dst []T) {
	vp.accessCheck(a.id, a.name, "Read", lo, hi, false)
	inst := a.base[vp.d.node] // empty once the run has ended, as in Read
	if lo < 0 || hi > len(inst) || lo > hi {
		a.checkLive("Node", "ReadBlock")
		panic(fmt.Sprintf("core: Node(%q).ReadBlock[%d:%d] out of [0,%d)", a.name, lo, hi, a.n))
	}
	if len(dst) < hi-lo {
		panic(fmt.Sprintf("core: Node(%q).ReadBlock: dst holds %d of %d elements", a.name, len(dst), hi-lo))
	}
	if lo == hi {
		return
	}
	n := hi - lo
	vp.lane.reads += int64(n)
	vp.chargeEach(vp.d.sharedReadCost, n)
	copy(dst, inst[lo:hi])
}

// WriteBlock writes src over elements [lo, lo+len(src)) of the node's
// instance, committing at the end of the phase. It copies src before
// returning; the caller may reuse src at once.
func (a *Node[T]) WriteBlock(vp *VP, lo int, src []T) { a.putBlock(vp, lo, src, false, "WriteBlock") }

// AddBlock accumulates src into elements [lo, lo+len(src)) at the end of
// the phase. It copies src before returning; the caller may reuse src at
// once.
func (a *Node[T]) AddBlock(vp *VP, lo int, src []T) { a.putBlock(vp, lo, src, true, "AddBlock") }

func (a *Node[T]) putBlock(vp *VP, lo int, src []T, add bool, op string) {
	vp.accessCheck(a.id, a.name, "Write", lo, lo+len(src), true)
	a.checkLive("Node", op)
	if lo < 0 || lo+len(src) > a.n {
		panic(fmt.Sprintf("core: Node(%q).%s[%d:%d] out of [0,%d)", a.name, op, lo, lo+len(src), a.n))
	}
	if len(src) == 0 {
		return
	}
	n := len(src)
	vp.lane.writes += int64(n)
	vp.chargeEach(vp.d.sharedWriteCost, n)
	nodeBufFor[T](vp, a).pushRun(lo, src, add, vp.wid())
}

// localElems implements registeredArray: node arrays are whole per node.
func (a *Node[T]) localElems(node int) int { return a.n }

// snapLocal implements registeredArray: copy node's instance aside.
func (a *Node[T]) snapLocal(node int) { a.snapImage(node, a.base[node]) }

// appendChanged implements registeredArray: the elements of node's
// instance that differ from the copy snapLocal took.
func (a *Node[T]) appendChanged(node int, out []int) []int {
	return a.changed(node, a.base[node], 0, out)
}

// ownerSpan implements registeredArray; node arrays are always local.
func (a *Node[T]) ownerSpan(i int) (owner, end int) { return 0, a.n }

// applyStaged implements registeredArray; node arrays stage nothing (their
// records apply at flush).
func (a *Node[T]) applyStaged(node int, strict bool, phaseSeq int64) (int, error) { return 0, nil }

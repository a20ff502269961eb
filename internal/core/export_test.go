package core

import (
	"unsafe"

	"ppm/internal/wire"
)

// What the tests of package core_test, which may import dist and the
// apps where package core's own tests may not, need to see of a rank.

// FetchLineBytes is the transfer line, and the storage unit of the image.
const FetchLineBytes = fetchLineBytes

// ArrayFootprint is what one rank stores of one shared array.
type ArrayFootprint struct {
	Name string
	N    int  // declared length
	Node bool // a Node array
	// Held is the elements stored in place: a Global's base, or every
	// instance of a Node array that exists (Instances of them).
	Held, Instances int
	// Lines is how many lines of a Global's image exist, LineElems the
	// elements they hold.
	Lines, LineElems int
}

// Footprints reports every array of rt's run, in allocation order.
func Footprints(rt *Runtime) []ArrayFootprint {
	var out []ArrayFootprint
	for _, a := range rt.gs.arrays {
		out = append(out, a.(interface{ footprint() ArrayFootprint }).footprint())
	}
	return out
}

func (g *Global[T]) footprint() ArrayFootprint {
	f := ArrayFootprint{Name: g.name, N: g.n, Held: len(g.base)}
	for _, l := range g.lines {
		if l != nil {
			f.Lines++
			f.LineElems += len(l)
		}
	}
	return f
}

func (a *Node[T]) footprint() ArrayFootprint {
	f := ArrayFootprint{Name: a.name, N: a.n, Node: true}
	for _, inst := range a.base {
		if inst != nil {
			f.Instances++
			f.Held += len(inst)
		}
	}
	return f
}

// held is what this rank holds for element i: its partition in place,
// anything else in the line image (zero where no line was ever installed).
// Whether a line's element is valid is the cover's business, not held's.
func (g *Global[T]) held(i int) T {
	if i >= g.off && i < g.off+len(g.base) {
		return g.base[i-g.off]
	}
	if l := g.lines[i>>g.lshift]; l != nil {
		return l[i&g.lmask]
	}
	var zero T
	return zero
}

// RestoreCheckpointBytes restores file, a whole checkpoint file, as rank
// 0's checkpoint of tag in a 2-rank fleet, into a fresh rank 0 holding a
// Global[float64] of gn elements and a Node[int64] of an, allocated in
// that order. It returns the file's block region and, once the restore
// has succeeded, the blocks the restored arrays encode.
func RestoreCheckpointBytes(file []byte, tag int64, gn, an int) (in, out []byte, err error) {
	gs := newGlobalState(Options{Nodes: 2, CoresPerNode: 1}, newLoopMesh(2).engs[0])
	rt := &Runtime{gs: gs}
	AllocGlobal[float64](rt, "acc", gn)
	AllocNode[int64](rt, "count", an)
	f, err := parseCheckpoint(file, 0, 2, tag)
	if err != nil {
		return nil, nil, err
	}
	if err := f.restore(gs, 0); err != nil {
		return f.blocks, nil, err
	}
	for _, arr := range gs.arrays[:f.nArrays] {
		out = arr.encodeCheckpoint(0, out)
	}
	return f.blocks, out, nil
}

// RaceEnabled reports a build with the race detector.
const RaceEnabled = raceEnabled

// CheckLaneHandOver is TestLaneHandOverGolden's body, with before called
// ahead of every run.
var CheckLaneHandOver = checkLaneHandOver

// PoisonScratchPools fills the process-wide pools that phase scratch and
// float64 and int64 storage draw from with garbage: a slice of every
// pool class up to maxBytes, its every byte 0xA5. A read key of them
// names no array. The VP slabs' VPs hold garbage too, but pointers the
// collector can follow: to a doRun and a lane of no run.
func PoisonScratchPools(maxBytes int) {
	poison(poolFor[wire.Pool[laneSeg]](), maxBytes)
	d, l := &doRun{}, &lane{}
	poisonEach(poolFor[wire.Pool[VP]](), maxBytes, func(vp *VP) {
		*vp = VP{d: d, lane: l, own: true, fast: true, phaseKind: 0xA5}
		garble(&vp.charge)
		garble(&vp.snap)
		garble(&vp.nodeRank)
		garble(&vp.ord)
	})
	poison(poolFor[wire.Pool[readKey]](), maxBytes)
	poison(poolFor[wire.Pool[laneRun]](), maxBytes)
	poison(poolFor[wire.Pool[laneTouch]](), maxBytes)
	poison(poolFor[wire.Pool[writeRec[float64]]](), maxBytes)
	poison(poolFor[wire.Pool[writeRec[int64]]](), maxBytes)
	poison(poolFor[wire.Pool[float64]](), maxBytes)
	poison(poolFor[wire.Pool[int64]](), maxBytes)
}

// poison puts into p a garbage slice of every class up to maxBytes. From
// an emptied pool every Get misses and allocates exactly its class's
// size, so asking for one element more than the last slice held reaches
// the next class, whatever the classes are.
func poison[E any](p *wire.Pool[E], maxBytes int) {
	poisonEach(p, maxBytes, garble[E])
}

// poisonEach is poison with fill setting each element.
func poisonEach[E any](p *wire.Pool[E], maxBytes int, fill func(*E)) {
	var e E
	size := int(unsafe.Sizeof(e))
	for n := 1; n*size <= maxBytes; {
		s := p.Get(n)
		s = s[:cap(s)]
		for i := range s {
			fill(&s[i])
		}
		p.Put(s)
		n = cap(s) + 1
	}
}

// garble sets every byte of *e to 0xA5.
func garble[E any](e *E) {
	b := unsafe.Slice((*byte)(unsafe.Pointer(e)), unsafe.Sizeof(*e))
	for i := range b {
		b[i] = 0xA5
	}
}

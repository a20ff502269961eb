package mp

import "fmt"

// Additional collectives. Like the core set in comm.go, each is built
// from point-to-point messages with a textbook algorithm so its virtual-
// time cost emerges from the machine model.

// Additional collective ids (continuing the comm.go block).
const (
	collScatter = 8 + iota
	collReduceScatter
	collScanInc
	collAllgatherDirect
)

// Scatterv distributes root's concatenated buffer to all ranks: rank r
// receives counts[r] elements. The inverse of Gatherv.
func Scatterv[T Elem](c *Comm, root int, data []T, counts []int) []T {
	gen := c.nextGen()
	p, rank := c.Size(), c.Rank()
	if len(counts) != p {
		panic(fmt.Sprintf("mp: Scatterv counts has %d entries for %d ranks", len(counts), p))
	}
	tag := collTag(collScatter, gen, 0)
	if rank == root {
		total := 0
		for _, n := range counts {
			total += n
		}
		if len(data) != total {
			panic(fmt.Sprintf("mp: Scatterv root buffer has %d elements, counts total %d", len(data), total))
		}
		off := 0
		var mine []T
		for r := 0; r < p; r++ {
			piece := data[off : off+counts[r]]
			off += counts[r]
			if r == root {
				mine = piece
				continue
			}
			sendColl(c, r, tag, piece)
		}
		return mine
	}
	return recvColl[T](c, root, tag)
}

// Scatter distributes equal-size pieces from root: the piece size is
// broadcast first, then the pieces scatter.
func Scatter[T Elem](c *Comm, root int, data []T) []T {
	p := c.Size()
	var size int64
	if c.Rank() == root {
		if len(data)%p != 0 {
			panic(fmt.Sprintf("mp: Scatter buffer of %d not divisible by %d ranks", len(data), p))
		}
		size = int64(len(data) / p)
	}
	size = Bcast(c, root, []int64{size})[0]
	counts := make([]int, p)
	for i := range counts {
		counts[i] = int(size)
	}
	return Scatterv(c, root, data, counts)
}

// ReduceScatter combines all ranks' equal-length vectors elementwise with
// op, then scatters the result: rank r returns the slice of the combined
// vector covering [displs[r], displs[r]+counts[r]). Implemented as a
// reduce-to-0 followed by a scatterv (cost-honest, if not the most
// scalable algorithm; the paper-era MPICH did the same for small counts).
func ReduceScatter[T Elem](c *Comm, data []T, counts []int, op func(a, b T) T) []T {
	full := Reduce(c, 0, data, op)
	return Scatterv(c, 0, full, counts)
}

// ScanSum returns the inclusive prefix sum over ranks of the local
// vector: rank r's result element i is the sum of ranks 0..r's element i.
func ScanSum[T Elem](c *Comm, data []T) []T {
	gen := c.nextGen()
	p, rank := c.Size(), c.Rank()
	out := append([]T(nil), data...)
	// Linear pipeline: rank r waits for r-1's partial, adds, forwards.
	// Latency is O(P) but each link carries one message — fine for the
	// small vectors scans are used for here.
	tag := collTag(collScanInc, gen, 0)
	if rank > 0 {
		in := recvColl[T](c, rank-1, tag)
		combine(out, in, func(a, b T) T { return a + b })
		c.chargeReduceFlops(len(out))
	}
	if rank < p-1 {
		sendColl(c, rank+1, tag, out)
	}
	return out
}

// AllgatherDirect is Allgather in one round: every rank sends its
// fixed-size contribution straight to every other rank and receives one
// from each, so it waits out one message latency where the ring waits out
// P-1 in sequence, at the price of P-1 sends a rank instead of one a
// step. The distributed runtime opens each global phase with it; the
// model's own collectives keep the ring, whose virtual time the figures
// pin.
func AllgatherDirect[T Elem](c *Comm, local []T) []T {
	gen := c.nextGen()
	p, rank := c.Size(), c.Rank()
	tag := collTag(collAllgatherDirect, gen, 0)
	for step := 1; step < p; step++ {
		sendColl(c, (rank+step)%p, tag, local)
	}
	out := make([]T, 0, p*len(local))
	for r := 0; r < p; r++ {
		if r == rank {
			out = append(out, local...)
			continue
		}
		in := recvColl[T](c, r, tag)
		if len(in) != len(local) {
			panic(fmt.Sprintf("mp: AllgatherDirect rank %d: rank %d contributed %d elems, this rank %d",
				rank, r, len(in), len(local)))
		}
		out = append(out, in...)
	}
	return out
}

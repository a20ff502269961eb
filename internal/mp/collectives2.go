package mp

import "fmt"

// The distributed runtime's own collective. Like the core set in
// comm.go, it is built from point-to-point messages.

// Additional collective ids (continuing the comm.go block; deleted
// collectives stay blank).
const (
	_ = 8 + iota // Scatter
	_            // ReduceScatter
	_            // ScanSum
	collAllgatherDirect
)

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

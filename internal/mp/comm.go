// Package mp is the message-passing layer of the reproduction: an
// MPI-flavored API (ranks, tags, blocking point-to-point operations, and
// the usual collectives) implemented on the cluster simulator.
//
// The paper's baselines are MPI programs and its PPM runtime "runs on top
// of an existing network communication software layer (e.g. MPI)"; mp is
// that layer here. Collectives are built from point-to-point messages
// with textbook algorithms (binomial trees, recursive doubling, ring and
// pairwise exchanges) so that their virtual-time cost emerges from the
// machine model rather than being asserted.
//
// Payloads travel by reference — the simulator shares one address space —
// but every operation charges the modeled size of the data it would have
// moved, and callers must treat received slices as owned by the sender
// unless documented otherwise.
package mp

import (
	"fmt"
	"unsafe"

	"ppm/internal/cluster"
)

// Wildcards re-exported for convenience.
const (
	AnySource = cluster.AnySource
	AnyTag    = cluster.AnyTag
)

// Collective operations use tags at and above tagReserved; user
// point-to-point traffic must stay below it.
const tagReserved = 1 << 24

// Elem constrains the element types the typed helpers and collectives
// accept. Fixed-size numeric types keep modeled byte counts honest.
type Elem interface {
	~float64 | ~float32 | ~int64 | ~int32 | ~int | ~uint64 | ~uint8
}

// SizeOf returns the in-memory (and modeled wire) size of T in bytes.
func SizeOf[T Elem]() int {
	var z T
	return int(unsafe.Sizeof(z))
}

// Comm is a communicator over all ranks of the underlying run. Each
// rank constructs its own Comm around its transport endpoint — the
// simulator's Proc, or a real one in the distributed runtime.
type Comm struct {
	ep Endpoint
	p  *cluster.Proc // non-nil only for simulator-backed comms
	// gen separates the reserved-tag space of successive collectives so
	// that no message from collective k can match collective k+1. It
	// points at a counter that may outlive the comm (NewEndpoint).
	gen *int
}

// New returns a communicator for the calling simulator rank.
func New(p *cluster.Proc) *Comm { return &Comm{ep: p, p: p, gen: new(int)} }

// NewEndpoint returns a communicator over an arbitrary transport whose
// collectives continue the generation counter *gen. A transport that
// outlives its comms keeps one counter for all of them, so that a
// message an earlier comm's collective left behind (a duplicate, or one
// from an aborted collective) can never match a later comm's.
func NewEndpoint(ep Endpoint, gen *int) *Comm { return &Comm{ep: ep, gen: gen} }

// Rank returns the calling process's rank.
func (c *Comm) Rank() int { return c.ep.Rank() }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.ep.Procs() }

// Proc exposes the underlying simulator process (for charging compute);
// nil for comms built over a non-simulator endpoint.
func (c *Comm) Proc() *cluster.Proc { return c.p }

func (c *Comm) checkUserTag(tag int) {
	if tag < 0 || tag >= tagReserved {
		panic(fmt.Sprintf("mp: user tag %d out of range [0, %d)", tag, tagReserved))
	}
}

// nextGen advances and returns the collective generation. Collectives are
// bulk-synchronous across all ranks in program order, so every rank
// computes the same sequence.
func (c *Comm) nextGen() int {
	*c.gen++
	return *c.gen
}

// collTag builds a reserved tag from (collective id, generation, round).
func collTag(coll, gen, round int) int {
	return tagReserved + coll + 16*(round+1024*gen)
}

// TagGen returns the collective generation a reserved tag was built
// with, and false for a user tag. A transport that outlives its comms
// uses it to recognise messages of collectives that have finished.
func TagGen(tag int) (gen int, ok bool) {
	if tag < tagReserved {
		return 0, false
	}
	return (tag - tagReserved) / (16 * 1024), true
}

// Collective ids for tag construction. A deleted collective leaves its
// id blank, so that the surviving ids, and the tags on the wire, keep
// their values.
const (
	collBarrier = iota
	collBcast
	_ // Reduce
	collAllreduce
	collGather
	collAllgather
	collAlltoall
	_ // Scan
)

// Send sends a typed slice to dst with a user tag. The receiver must not
// mutate the slice.
func Send[T Elem](c *Comm, dst, tag int, data []T) {
	c.checkUserTag(tag)
	c.ep.Send(dst, tag, data, len(data)*SizeOf[T]())
}

// Recv receives a typed slice from src with a user tag. Both src and tag
// accept their wildcard (AnySource, AnyTag). A wildcard-tag receive
// matches the oldest queued message of any tag — including a collective's
// internal reserved-tag traffic from a peer that has raced ahead — so
// drain wildcard receives before entering the next collective.
func Recv[T Elem](c *Comm, src, tag int) []T {
	if tag != AnyTag {
		c.checkUserTag(tag)
	}
	m := c.ep.Recv(src, tag)
	return payloadAs[T](fmt.Sprintf("rank %d Recv(src=%d, tag=%d)", c.Rank(), src, tag), m)
}

// sendColl / recvColl move data under reserved tags (internal).
func sendColl[T Elem](c *Comm, dst, tag int, data []T) {
	c.ep.Send(dst, tag, data, len(data)*SizeOf[T]())
}

func recvColl[T Elem](c *Comm, src, tag int) []T {
	m := c.ep.Recv(src, tag)
	return payloadAs[T]("collective recv", m)
}

// Barrier blocks until all ranks reach it, using a dissemination pattern
// of log2(P) rounds so the cost reflects the machine model.
func (c *Comm) Barrier() {
	gen := c.nextGen()
	p, rank := c.Size(), c.Rank()
	for k, round := 1, 0; k < p; k, round = k<<1, round+1 {
		tag := collTag(collBarrier, gen, round)
		c.ep.Send((rank+k)%p, tag, nil, 0)
		c.ep.Recv((rank-k+p)%p, tag)
	}
}

// Bcast distributes root's buffer to all ranks and returns it (the root
// returns its own slice). Binomial tree.
func Bcast[T Elem](c *Comm, root int, data []T) []T {
	gen := c.nextGen()
	p, rank := c.Size(), c.Rank()
	rel := (rank - root + p) % p // relative rank; root is 0
	tag := collTag(collBcast, gen, 0)
	if rel != 0 {
		data = recvColl[T](c, AnySource, tag)
	}
	// After receiving (or being root), forward to children in the
	// binomial tree: child rel ids are rel + 2^k for 2^k > rel.
	mask := 1
	for mask < p && rel >= mask {
		mask <<= 1
	}
	for ; mask < p; mask <<= 1 {
		childRel := rel + mask
		if childRel < p {
			sendColl(c, (childRel+root)%p, tag, data)
		}
	}
	return data
}

// Allreduce combines all ranks' equal-length vectors elementwise with op;
// every rank returns the result. Recursive doubling, with a fold-in
// pre-phase for non-power-of-two sizes.
func Allreduce[T Elem](c *Comm, data []T, op func(a, b T) T) []T {
	gen := c.nextGen()
	p, rank := c.Size(), c.Rank()
	acc := append([]T(nil), data...)
	// Largest power of two <= p.
	pow2 := 1
	for pow2*2 <= p {
		pow2 *= 2
	}
	rem := p - pow2
	tagPre := collTag(collAllreduce, gen, 0)
	// Extras (ranks >= pow2) fold into their partner below.
	if rank >= pow2 {
		sendColl(c, rank-pow2, tagPre, acc)
	} else if rank < rem {
		in := recvColl[T](c, rank+pow2, tagPre)
		combine(acc, in, op)
		c.chargeReduceFlops(len(acc))
	}
	if rank < pow2 {
		for mask, round := 1, 1; mask < pow2; mask, round = mask<<1, round+1 {
			partner := rank ^ mask
			tag := collTag(collAllreduce, gen, round)
			sendColl(c, partner, tag, acc)
			in := recvColl[T](c, partner, tag)
			acc = append([]T(nil), acc...) // do not mutate what we sent
			combine(acc, in, op)
			c.chargeReduceFlops(len(acc))
		}
	}
	// Extras get the result back.
	tagPost := collTag(collAllreduce, gen, 99)
	if rank < rem {
		sendColl(c, rank+pow2, tagPost, acc)
	} else if rank >= pow2 {
		acc = recvColl[T](c, rank-pow2, tagPost)
	}
	return acc
}

// combine folds b into a elementwise; lengths must match.
func combine[T Elem](a, b []T, op func(x, y T) T) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mp: reduce length mismatch: %d vs %d", len(a), len(b)))
	}
	for i := range a {
		a[i] = op(a[i], b[i])
	}
}

func (c *Comm) chargeReduceFlops(n int) {
	c.ep.ChargeFlops(int64(n))
}

// Gatherv collects each rank's variable-length contribution on root, in
// rank order. counts must be identical on every rank. Returns the
// concatenation on root, nil elsewhere.
func Gatherv[T Elem](c *Comm, root int, local []T, counts []int) []T {
	gen := c.nextGen()
	p, rank := c.Size(), c.Rank()
	if len(counts) != p {
		panic(fmt.Sprintf("mp: Gatherv counts has %d entries for %d ranks", len(counts), p))
	}
	if len(local) != counts[rank] {
		panic(fmt.Sprintf("mp: Gatherv rank %d contributes %d, counts says %d", rank, len(local), counts[rank]))
	}
	tag := collTag(collGather, gen, 0)
	if rank != root {
		sendColl(c, root, tag, local)
		return nil
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	out := make([]T, 0, total)
	for r := 0; r < p; r++ {
		if r == root {
			out = append(out, local...)
		} else {
			out = append(out, recvColl[T](c, r, tag)...)
		}
	}
	return out
}

// Allgatherv collects every rank's variable-length contribution on every
// rank, concatenated in rank order. Ring algorithm: P-1 steps, each
// forwarding the piece received in the previous step.
func Allgatherv[T Elem](c *Comm, local []T, counts []int) []T {
	gen := c.nextGen()
	p, rank := c.Size(), c.Rank()
	if len(counts) != p {
		panic(fmt.Sprintf("mp: Allgatherv counts has %d entries for %d ranks", len(counts), p))
	}
	if len(local) != counts[rank] {
		panic(fmt.Sprintf("mp: Allgatherv rank %d contributes %d, counts says %d", rank, len(local), counts[rank]))
	}
	pieces := make([][]T, p)
	pieces[rank] = local
	next, prev := (rank+1)%p, (rank-1+p)%p
	cur := local
	curIdx := rank
	for step := 0; step < p-1; step++ {
		tag := collTag(collAllgather, gen, step)
		sendColl(c, next, tag, cur)
		cur = recvColl[T](c, prev, tag)
		curIdx = (curIdx - 1 + p) % p
		pieces[curIdx] = cur
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	out := make([]T, 0, total)
	for r := 0; r < p; r++ {
		if len(pieces[r]) != counts[r] {
			panic(fmt.Sprintf("mp: Allgatherv rank %d: piece %d has %d elems, counts says %d",
				rank, r, len(pieces[r]), counts[r]))
		}
		out = append(out, pieces[r]...)
	}
	return out
}

// Allgather collects one fixed-size contribution per rank on every rank.
func Allgather[T Elem](c *Comm, local []T) []T {
	counts := make([]int, c.Size())
	for i := range counts {
		counts[i] = len(local)
	}
	return Allgatherv(c, local, counts)
}

// Alltoallv sends send[r] to each rank r and returns the vector received
// from each rank (recv[r] came from rank r). Pairwise exchange over P-1
// steps plus the local copy; works for any P.
func Alltoallv[T Elem](c *Comm, send [][]T) [][]T {
	gen := c.nextGen()
	p, rank := c.Size(), c.Rank()
	if len(send) != p {
		panic(fmt.Sprintf("mp: Alltoallv send has %d entries for %d ranks", len(send), p))
	}
	recv := make([][]T, p)
	recv[rank] = send[rank]
	for step := 1; step < p; step++ {
		dst := (rank + step) % p
		src := (rank - step + p) % p
		tag := collTag(collAlltoall, gen, step)
		sendColl(c, dst, tag, send[dst])
		recv[src] = recvColl[T](c, src, tag)
	}
	return recv
}

// ExscanSumInt returns the exclusive prefix sum of each rank's value
// (rank 0 gets 0). Built on Allgather: the per-rank payload is one int,
// so the ring's P-1 small messages are the right cost to model and the
// arithmetic is trivially correct for any P.
func ExscanSumInt(c *Comm, v int) int {
	all := Allgather(c, []int{v})
	sum := 0
	for r := 0; r < c.Rank(); r++ {
		sum += all[r]
	}
	return sum
}

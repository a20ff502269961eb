// Package colloc implements the paper's Application 2: sparse-matrix
// generation for a multi-scale collocation method for integral equations
// (after Chen, Wu and Xu, the paper's reference [6]; the paper's run
// generated a 1M x 1M matrix with >200M nonzeros).
//
// The discretization is a multi-scale hat-function basis on [0,1] with a
// weakly singular log kernel. The algorithm iterates through the levels;
// at each level an intermediate table of expensive numerical integrations
// is produced and stored as global data, and the matrix entries whose
// quadrature lives at that level then read the table in patterns driven
// by the sparsity structure — high-volume, random, fine-grained access,
// which is exactly what the paper selected this application for.
//
// The three implementations (Generate, RunPPM, RunMPI) produce bitwise-
// identical matrices: every entry combines the same table values in the
// same order.
package colloc

import (
	"flag"
	"fmt"
	"math"
	"slices"
	"sort"
)

type Params struct {
	Levels int     // number of multi-scale levels L
	M0     int     // basis functions at level 0
	Delta  float64 // truncation radius in units of (h_li + h_lj)
}

// DefaultQuad is the inner-quadrature point count for table entries.
const DefaultQuad = 32

// WithDefaults fills zero fields with the Figure 2 workload (7 levels
// over 12 level-0 functions, truncation radius 3).
func (p Params) WithDefaults() Params {
	if p.Levels == 0 {
		p.Levels = 7
	}
	if p.M0 == 0 {
		p.M0 = 12
	}
	if p.Delta == 0 {
		p.Delta = 3
	}
	return p
}

// Flags binds p to its command-line flags on fs, defaulted as WithDefaults.
func (p *Params) Flags(fs *flag.FlagSet) {
	*p = p.WithDefaults()
	fs.IntVar(&p.Levels, "colloc-levels", p.Levels, "colloc: levels")
	fs.IntVar(&p.M0, "colloc-m0", p.M0, "colloc: level-0 basis count")
}

// Canonical is what a job hash covers: every field as a 64-bit word, in
// a fixed order. Delta has always been hashed as its integer part, and
// cached results are keyed by those bytes, so that stays; a fractional
// radius, which used to hash like its integer part, follows in full.
func (p Params) Canonical() []uint64 {
	words := []uint64{uint64(p.Levels), uint64(p.M0), uint64(int64(p.Delta))}
	if p.Delta != math.Trunc(p.Delta) {
		words = append(words, math.Float64bits(p.Delta))
	}
	return words
}

// MaxBasis bounds the matrix dimension, M0 x (2^Levels - 1) basis
// functions. A simulator job runs inside the process that serves it, so
// a size past any bound would end that process out of memory rather than
// fail the job; this is far above every size the repo runs.
const MaxBasis = 1 << 20

// Validate reports the first parameter no run could use.
func (p Params) Validate() error {
	if p.Levels <= 0 || p.Levels > 24 {
		return fmt.Errorf("colloc: Levels must be in [1,24], got %d", p.Levels)
	}
	if p.M0 <= 0 {
		return fmt.Errorf("colloc: M0 must be positive, got %d", p.M0)
	}
	if per := 1<<p.Levels - 1; p.M0 > MaxBasis/per {
		return fmt.Errorf("colloc: M0 x (2^Levels - 1) must be at most %d basis functions, got %d x %d", MaxBasis, p.M0, per)
	}
	if p.Delta <= 0 {
		return fmt.Errorf("colloc: Delta must be positive, got %v", p.Delta)
	}
	return nil
}

// m returns the basis count at level l.
func (p Params) m(l int) int { return p.M0 << uint(l) }

// q returns the quadrature-node count at level l (two per cell).
func (p Params) q(l int) int { return 2 * p.m(l) }

// offset returns the first global index of level l.
func (p Params) offset(l int) int { return p.M0 * ((1 << uint(l)) - 1) }

// N returns the total number of basis functions (matrix dimension).
func (p Params) N() int { return p.offset(p.Levels) }

// levelOf decomposes a global index into (level, position).
func (p Params) levelOf(i int) (l, k int) {
	for l = 0; l < p.Levels; l++ {
		if i < p.offset(l+1) {
			return l, i - p.offset(l)
		}
	}
	panic(fmt.Sprintf("colloc: index %d out of %d", i, p.N()))
}

// point returns the collocation point of basis (l, k).
func (p Params) point(l, k int) float64 {
	return (float64(k) + 0.5) / float64(p.m(l))
}

// kernel is the weakly singular integral kernel.
func kernel(t, s float64) float64 {
	return math.Log(math.Abs(t-s) + 1e-8)
}

// kernelFlops is the modeled cost of one kernel evaluation in flop-
// equivalents: abs, add and a transcendental log, which costs tens of
// cycles on the modeled Opteron (the machine model's effective flop rate
// is calibrated for memory-bound streaming, so compute-dense
// transcendentals are worth many flop-equivalents).
const kernelFlops = 25

// weight is the smooth density the tables integrate against.
func weight(u float64) float64 { return 1 + u*(1-u) }

// TableEntry computes the level-l intermediate table value at quadrature
// node j: an expensive inner quadrature of the kernel against the weight
// density. Every implementation calls exactly this function.
func TableEntry(p Params, l, j int) (val float64, flops int64) {
	s := (float64(j) + 0.5) / float64(p.q(l))
	for qq := 0; qq < DefaultQuad; qq++ {
		u := (float64(qq) + 0.5) / DefaultQuad
		val += kernel(s, u) * weight(u)
	}
	val /= DefaultQuad
	return val, DefaultQuad * (kernelFlops + 5)
}

// hat evaluates basis function (l, k) at s.
func hat(p Params, l, k int, s float64) float64 {
	h := 1 / float64(p.m(l))
	c := (float64(k) + 0.5) * h
	v := 1 - math.Abs(s-c)/(h/2)
	if v < 0 {
		return 0
	}
	return v
}

// ColRef describes one structurally nonzero entry of a row: the global
// column, its (level, position), and the quadrature level lq where its
// table reads happen (the finer of the row and column levels).
type ColRef struct {
	Col    int
	Lj, Kj int
	Lq     int
}

// RowPattern returns row i's structural nonzeros in increasing column
// order: columns (lj, kj) whose collocation point is within
// Delta*(h_li + h_lj) of t_i.
func RowPattern(p Params, i int) []ColRef { return AppendRowPattern(nil, p, i) }

// AppendRowPattern appends row i's pattern (see RowPattern) to out, so a
// caller walking many rows can reuse one scratch slice.
func AppendRowPattern(out []ColRef, p Params, i int) []ColRef {
	li, ti := p.row(i)
	for lj := 0; lj < p.Levels; lj++ {
		kLo, kHi, radius := p.window(li, ti, lj)
		for kj := kLo; kj < kHi; kj++ {
			if math.Abs(p.point(lj, kj)-ti) <= radius {
				out = append(out, ColRef{Col: p.offset(lj) + kj, Lj: lj, Kj: kj, Lq: max(li, lj)})
			}
		}
	}
	return out
}

// row returns row i's level and collocation point.
func (p Params) row(i int) (li int, ti float64) {
	li, ki := p.levelOf(i)
	return li, p.point(li, ki)
}

// window returns the level-lj positions [kLo, kHi) that may lie within
// the truncation radius of t_i, for a row at level li, and that radius.
func (p Params) window(li int, ti float64, lj int) (kLo, kHi int, radius float64) {
	hj := 1 / float64(p.m(lj))
	radius = p.Delta * (1/float64(p.m(li)) + hj)
	kLo = max(int(math.Floor((ti-radius)/hj)), 0)
	kHi = min(int(math.Ceil((ti+radius)/hj)), p.m(lj))
	return kLo, kHi, radius
}

// RowRun is one run of a row's pattern: the columns (Lj, K0) to
// (Lj, K0+N-1) of row Row, in column order, whose quadrature level is Lq.
// Slot numbers its first entry among the entries of the rows a caller
// walks, taken row by row.
type RowRun struct {
	Row, Lj, Lq, K0, Slot, N int
}

// Ref returns the run's t-th entry.
func (r RowRun) Ref(p Params, t int) ColRef {
	return ColRef{Col: p.offset(r.Lj) + r.K0 + t, Lj: r.Lj, Kj: r.K0 + t, Lq: r.Lq}
}

// AppendRowRuns appends row i's pattern (see RowPattern) to out as runs,
// numbering its entries from slot0 on. A column level's positions within
// the truncation radius of t_i are consecutive (the collocation points
// ascend with the position), so each level with entries is one run. The
// runs are generated from the row's level position with
// AppendRowPattern's test: expanded, they are RowPattern exactly.
func AppendRowRuns(out []RowRun, p Params, i, slot0 int) []RowRun {
	li, ti := p.row(i)
	for lj := 0; lj < p.Levels; lj++ {
		k0, k1, radius := p.window(li, ti, lj)
		for k0 < k1 && math.Abs(p.point(lj, k0)-ti) > radius {
			k0++
		}
		n := 0
		for k0+n < k1 && math.Abs(p.point(lj, k0+n)-ti) <= radius {
			n++
		}
		if n > 0 {
			out = append(out, RowRun{Row: i, Lj: lj, Lq: max(li, lj), K0: k0, Slot: slot0, N: n})
			slot0 += n
		}
	}
	return out
}

// rankPattern holds the pattern of one rank's rows first, first+stride,
// ... as RowRuns. Slots number the entries row by row, each row as
// RowPattern orders it; positions number them by quadrature level, each
// level's in slot order, and index the rank's values. The runs are held
// in position order with a prefix of their lengths.
type rankPattern struct {
	first, stride int
	rowStart      []int    // each row's first slot, then the entry count
	runs          []RowRun // by quadrature level, then slot
	pre           []int    // pre[k]: the position of run k's first entry
	level         []int    // level[l]: level l's first run; level[Levels] = len(runs)
}

func newRankPattern(p Params, first, stride int) *rankPattern {
	pt := &rankPattern{first: first, stride: stride, level: make([]int, p.Levels+1)}
	// Two passes over one scratch row: run counts first, so that the
	// runs and their prefix are allocated once.
	var scratch []RowRun
	rows := 0
	for i := first; i < p.N(); i += stride {
		scratch = AppendRowRuns(scratch[:0], p, i, 0)
		for _, r := range scratch {
			pt.level[r.Lq+1]++
		}
		rows++
	}
	for l := range p.Levels {
		pt.level[l+1] += pt.level[l]
	}
	next := slices.Clone(pt.level)
	pt.runs, pt.pre = make([]RowRun, pt.level[p.Levels]), make([]int, pt.level[p.Levels]+1)
	pt.rowStart = make([]int, 1, rows+1)
	slot := 0
	for i := first; i < p.N(); i += stride {
		scratch = AppendRowRuns(scratch[:0], p, i, slot)
		for _, r := range scratch {
			pt.runs[next[r.Lq]] = r
			next[r.Lq]++
			slot += r.N
		}
		pt.rowStart = append(pt.rowStart, slot)
	}
	for k, r := range pt.runs {
		pt.pre[k+1] = pt.pre[k] + r.N
	}
	return pt
}

// nnz returns the rank's entry count.
func (pt *rankPattern) nnz() int { return pt.pre[len(pt.runs)] }

// span returns the positions [lo, hi) of the rank's level-l entries.
func (pt *rankPattern) span(l int) (lo, hi int) { return pt.pre[pt.level[l]], pt.pre[pt.level[l+1]] }

// levelRuns returns the runs of quadrature level l.
func (pt *rankPattern) levelRuns(l int) []RowRun { return pt.runs[pt.level[l]:pt.level[l+1]] }

// cursor walks entries in position order.
type cursor struct {
	runs []RowRun
	r, t int // run index, offset in it
}

// at returns a cursor at position e; a binary search over the prefix
// finds its run.
func (pt *rankPattern) at(e int) cursor {
	r := sort.SearchInts(pt.pre, e+1) - 1
	return cursor{pt.runs, r, e - pt.pre[r]}
}

// next returns the entry under the cursor, as its run and its offset in
// the run, and moves on to the next position.
func (c *cursor) next() (RowRun, int) {
	r, t := c.runs[c.r], c.t
	if c.t++; c.t == r.N {
		c.r, c.t = c.r+1, 0
	}
	return r, t
}

// fill sets out's rows for the rank from vals, which holds each entry's
// value at its position. The rows share one backing array.
func (pt *rankPattern) fill(p Params, out *Matrix, vals []float64) {
	ents := make([]Entry, pt.nnz())
	for k, r := range pt.runs {
		for t := range r.N {
			ents[r.Slot+t] = Entry{Col: r.Ref(p, t).Col, Val: vals[pt.pre[k]+t]}
		}
	}
	for k := range len(pt.rowStart) - 1 {
		lo, hi := pt.rowStart[k], pt.rowStart[k+1]
		out.Rows[pt.first+k*pt.stride] = ents[lo:hi:hi]
	}
}

// EntryValue computes matrix entry (row i with collocation point ti,
// column c) given read access to the level-c.Lq table. The quadrature
// runs over the level-Lq nodes inside the column basis's support; those
// node indices are the fine-grained reads the runtimes must move.
func EntryValue(p Params, ti float64, c ColRef, gread func(j int) float64) (val float64, flops int64) {
	j0, perCell := EntrySupport(p, c)
	qn := p.q(c.Lq)
	w := 1 / float64(qn)
	for j := j0; j < j0+perCell; j++ {
		s := (float64(j) + 0.5) / float64(qn)
		val += w * kernel(ti, s) * hat(p, c.Lj, c.Kj, s) * gread(j)
	}
	return val, int64(perCell) * (kernelFlops + 8)
}

// EntrySupport returns the contiguous level-Lq table range [j0, j0+n)
// that EntryValue reads for entry c: callers that can fetch the run in
// one block access prefetch it and use EntryValueBlock.
func EntrySupport(p Params, c ColRef) (j0, n int) {
	n = p.q(c.Lq) / p.m(c.Lj) // level-Lq nodes inside the column's support
	return c.Kj * n, n
}

// EntryValueBlock is EntryValue over a prefetched table run: tab[i] must
// hold table value j0+i for the range EntrySupport reports. The floating-
// point evaluation order is identical to EntryValue's, so both produce
// bitwise-equal entries.
func EntryValueBlock(p Params, ti float64, c ColRef, tab []float64) (val float64, flops int64) {
	j0, perCell := EntrySupport(p, c)
	qn := p.q(c.Lq)
	w := 1 / float64(qn)
	for j := j0; j < j0+perCell; j++ {
		s := (float64(j) + 0.5) / float64(qn)
		val += w * kernel(ti, s) * hat(p, c.Lj, c.Kj, s) * tab[j-j0]
	}
	return val, int64(perCell) * (kernelFlops + 8)
}

// Entry is one stored matrix entry.
type Entry struct {
	Col int
	Val float64
}

// Matrix is the generated sparse matrix in row-major entry lists.
type Matrix struct {
	N    int
	Rows [][]Entry
}

// NNZ returns the number of stored entries.
func (m *Matrix) NNZ() int {
	n := 0
	for _, r := range m.Rows {
		n += len(r)
	}
	return n
}

// Equal reports whether two matrices are identical (structure and bit-
// exact values).
func (m *Matrix) Equal(o *Matrix) bool {
	if m.N != o.N || len(m.Rows) != len(o.Rows) {
		return false
	}
	for i := range m.Rows {
		if len(m.Rows[i]) != len(o.Rows[i]) {
			return false
		}
		for k := range m.Rows[i] {
			if m.Rows[i][k] != o.Rows[i][k] {
				return false
			}
		}
	}
	return true
}

// Generate builds the matrix sequentially: the reference implementation.
func Generate(p Params) (*Matrix, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.N()
	// Per-level tables.
	tables := make([][]float64, p.Levels)
	for l := range tables {
		tables[l] = make([]float64, p.q(l))
		for j := range tables[l] {
			tables[l][j], _ = TableEntry(p, l, j)
		}
	}
	m := &Matrix{N: n, Rows: make([][]Entry, n)}
	for i := 0; i < n; i++ {
		_, ti := p.row(i)
		for _, c := range RowPattern(p, i) {
			tab := tables[c.Lq]
			v, _ := EntryValue(p, ti, c, func(j int) float64 { return tab[j] })
			m.Rows[i] = append(m.Rows[i], Entry{Col: c.Col, Val: v})
		}
	}
	return m, nil
}

// Package nbody implements the paper's Application 3: Barnes–Hut N-body
// simulation (the paper's run used 2M particles). Each time step builds
// an octree over the particles and computes forces through it — O(n log
// n) work with totally data-driven, random, fine-grained access to the
// tree, which the paper singles out as "generally unsuitable for MPI".
//
// The particle set is block-partitioned; every partition builds an octree
// over its own bodies, and the acceleration on a body is the sum of the
// partial accelerations from all partitions' trees. Three implementations
// share this exact decomposition and therefore produce bitwise-identical
// trajectories for the same partition count:
//
//   - RunPartitioned: sequential reference.
//   - RunPPM: trees live in a globally shared array; VPs traverse remote
//     trees in place and the runtime bundles the fine-grained reads —
//     no tree is ever copied wholesale.
//   - RunMPI: the replication baseline the paper cites (Garmire–Ong):
//     every rank allgathers every other rank's flattened tree each step,
//     then computes locally. Simple, but the communication volume is the
//     whole forest.
package nbody

import (
	"flag"
	"fmt"
	"math"

	"ppm/internal/octree"
	"ppm/internal/partition"
	"ppm/internal/rng"
)

type Params struct {
	N     int     // number of bodies
	Steps int     // time steps
	Theta float64 // multipole acceptance angle
	Eps   float64 // Plummer softening
	DT    float64 // time step
	Seed  uint64  // initial-condition seed
}

// WithDefaults fills zero fields with the Figure 3 workload (3000 bodies,
// 2 steps of 0.01, theta 0.5, softening 0.05, seed 42).
func (p Params) WithDefaults() Params {
	if p.N == 0 {
		p.N = 3000
	}
	if p.Steps == 0 {
		p.Steps = 2
	}
	if p.Theta == 0 {
		p.Theta = 0.5
	}
	if p.Eps == 0 {
		p.Eps = 0.05
	}
	if p.DT == 0 {
		p.DT = 0.01
	}
	if p.Seed == 0 {
		p.Seed = 42
	}
	return p
}

// Flags binds p to its command-line flags on fs, defaulted as WithDefaults.
func (p *Params) Flags(fs *flag.FlagSet) {
	*p = p.WithDefaults()
	fs.IntVar(&p.N, "bh-n", p.N, "nbody: bodies")
	fs.IntVar(&p.Steps, "bh-steps", p.Steps, "nbody: steps")
}

// Canonical is what a job hash covers: every field as a 64-bit word
// (floats as their bit pattern), in a fixed order.
func (p Params) Canonical() []uint64 {
	return []uint64{uint64(p.N), uint64(p.Steps),
		math.Float64bits(p.Theta), math.Float64bits(p.Eps), math.Float64bits(p.DT), p.Seed}
}

// MaxBodies bounds N. A simulator job runs inside the process that
// serves it, so a size past any bound would end that process out of
// memory rather than fail the job; this is far above every size the repo
// runs.
const MaxBodies = 1 << 20

// Validate reports the first parameter no run could use.
func (p Params) Validate() error {
	if p.N <= 0 {
		return fmt.Errorf("nbody: N must be positive, got %d", p.N)
	}
	if p.N > MaxBodies {
		return fmt.Errorf("nbody: N must be at most %d, got %d", MaxBodies, p.N)
	}
	if p.Steps < 0 {
		return fmt.Errorf("nbody: Steps must be non-negative, got %d", p.Steps)
	}
	if p.Theta < 0 {
		return fmt.Errorf("nbody: Theta must be non-negative, got %v", p.Theta)
	}
	if p.Eps <= 0 {
		return fmt.Errorf("nbody: Eps must be positive, got %v", p.Eps)
	}
	if p.DT <= 0 {
		return fmt.Errorf("nbody: DT must be positive, got %v", p.DT)
	}
	return nil
}

// State holds the particle phase space in structure-of-arrays layout.
type State struct {
	PX, PY, PZ []float64
	VX, VY, VZ []float64
	M          []float64
}

// Bodies converts the positions and masses to octree bodies.
func (s *State) Bodies(lo, hi int) []octree.Body {
	out := make([]octree.Body, hi-lo)
	for i := lo; i < hi; i++ {
		out[i-lo] = octree.Body{X: s.PX[i], Y: s.PY[i], Z: s.PZ[i], M: s.M[i]}
	}
	return out
}

// InitState samples a Plummer-like sphere: the classic Plummer radial
// profile with isotropic directions, small random velocities, and equal
// masses summing to 1.
func InitState(p Params) *State {
	r := rng.New(p.Seed)
	s := &State{
		PX: make([]float64, p.N), PY: make([]float64, p.N), PZ: make([]float64, p.N),
		VX: make([]float64, p.N), VY: make([]float64, p.N), VZ: make([]float64, p.N),
		M: make([]float64, p.N),
	}
	for i := 0; i < p.N; i++ {
		u := r.Float64()
		for u < 1e-9 {
			u = r.Float64()
		}
		rad := 1 / math.Sqrt(math.Pow(u, -2.0/3.0)-1)
		if rad > 10 {
			rad = 10 // clip the rare far tail
		}
		// Uniform direction.
		z := 2*r.Float64() - 1
		phi := 2 * math.Pi * r.Float64()
		sxy := math.Sqrt(1 - z*z)
		s.PX[i] = rad * sxy * math.Cos(phi)
		s.PY[i] = rad * sxy * math.Sin(phi)
		s.PZ[i] = rad * z
		s.VX[i] = 0.05 * r.NormFloat64()
		s.VY[i] = 0.05 * r.NormFloat64()
		s.VZ[i] = 0.05 * r.NormFloat64()
		s.M[i] = 1 / float64(p.N)
	}
	return s
}

// buildFlops models the cost of constructing and summarizing an octree
// over n bodies.
func buildFlops(n int) int64 {
	if n <= 1 {
		return 32
	}
	return int64(80 * n * (1 + int(math.Ceil(math.Log2(float64(n))))))
}

// interactionFlops is the modeled cost of one body/cell interaction.
const interactionFlops = 20

// step advances one partition-decomposed time step given record access to
// every partition's flattened tree: trees[r] is the source of partition r's
// tree. Bodies [lo, hi) are updated in place. Returns the interaction count
// (for cost accounting).
func step(p Params, s *State, part partition.Block, lo, hi int, trees []octree.Source) int64 {
	var inter int64
	for i := lo; i < hi; i++ {
		var ax, ay, az float64
		for r := 0; r < part.Parts; r++ {
			gx, gy, gz, n := octree.Accel(trees[r], s.PX[i], s.PY[i], s.PZ[i], p.Theta, p.Eps)
			ax += gx
			ay += gy
			az += gz
			inter += n
		}
		s.VX[i] += ax * p.DT
		s.VY[i] += ay * p.DT
		s.VZ[i] += az * p.DT
	}
	// Positions move only after all forces are in (matches the phase
	// semantics of the PPM version, where position writes commit at the
	// end of the force phase).
	for i := lo; i < hi; i++ {
		s.PX[i] += s.VX[i] * p.DT
		s.PY[i] += s.VY[i] * p.DT
		s.PZ[i] += s.VZ[i] * p.DT
	}
	return inter
}

// RunPartitioned runs the simulation sequentially with the same
// partition decomposition the parallel versions use: the bitwise
// reference for `parts` partitions.
func RunPartitioned(p Params, parts int) (*State, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if parts <= 0 {
		return nil, fmt.Errorf("nbody: parts must be positive, got %d", parts)
	}
	s := InitState(p)
	part := partition.NewBlock(p.N, parts)
	for st := 0; st < p.Steps; st++ {
		trees := make([]octree.Source, parts)
		for r := 0; r < parts; r++ {
			rlo, rhi := part.Range(r)
			bodies := s.Bodies(rlo, rhi)
			cx, cy, cz, h := octree.Bounds(bodies)
			trees[r] = octree.NewSliceSource(octree.Build(bodies, cx, cy, cz, h).Flatten())
		}
		step(p, s, part, 0, p.N, trees)
	}
	return s, nil
}

// segCap returns the per-partition tree segment capacity (in tree nodes)
// for n bodies: enough for any LeafCap>=1 octree over n bodies at sane
// depths, with headroom.
func segCap(nLocalMax int) int {
	return 3*nLocalMax + 64
}

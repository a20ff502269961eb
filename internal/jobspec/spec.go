// Package jobspec defines the serialized description of one PPM job —
// application, parameters, cluster shape, backend — shared by the
// ppm-run CLI (-spec job.json) and the ppm-server control plane, so both
// submit exactly the same object and produce bit-identical results.
//
// The package also defines the canonical byte encoding of a normalized
// spec and its SHA-256 content hash, which keys the server's
// content-addressed result cache: two submissions hash equal exactly
// when the runtime would produce Float64bits-identical Series for them.
// Fields that cannot change the result (the job deadline) are excluded
// from the hash; everything else — including the backend, which changes
// which counters are populated — is included.
package jobspec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"ppm/internal/apps/cg"
	"ppm/internal/apps/colloc"
	"ppm/internal/apps/jacobi"
	"ppm/internal/apps/nbody"
	"ppm/internal/apps/scatter"
	"ppm/internal/apps/search"
	"ppm/internal/core"
	"ppm/internal/dist"
	"ppm/internal/machine"
)

// Backend names for Spec.Backend.
const (
	BackendSim      = "sim"      // sequential simulator (core.Run)
	BackendParallel = "parallel" // simulator on the parallel host scheduler
	BackendDist     = "dist"     // real node processes over TCP (core.RunDist)
)

// Spec describes one job. The zero value is not runnable; Normalize
// fills defaults. The commands' parameter flags are bound to the same
// blocks and default the same way (Flags), so a spec submitted over HTTP
// and the equivalent CLI invocation hash equal.
type Spec struct {
	// App names a registered application (dist.AppNames). Exactly one of
	// the parameter blocks below, its own, is consulted.
	App string `json:"app"`
	// Backend selects the execution substrate: sim (default), parallel,
	// or dist.
	Backend string `json:"backend,omitempty"`
	// Nodes and Cores shape the cluster (defaults 2 and 4).
	Nodes int `json:"nodes,omitempty"`
	Cores int `json:"cores,omitempty"`
	// Preset names the machine cost model: franklin (default) or generic.
	Preset string `json:"preset,omitempty"`

	// Ablation switches, mirroring the ppm-run flags.
	NoBundling  bool `json:"no_bundling,omitempty"`
	NoOverlap   bool `json:"no_overlap,omitempty"`
	NoReadCache bool `json:"no_readcache,omitempty"`
	Static      bool `json:"static,omitempty"`

	// Per-app parameters; only the block matching App is used.
	CG      *cg.Params      `json:"cg,omitempty"`
	Colloc  *colloc.Params  `json:"colloc,omitempty"`
	Nbody   *nbody.Params   `json:"nbody,omitempty"`
	Jacobi  *jacobi.Params  `json:"jacobi,omitempty"`
	Search  *search.Params  `json:"search,omitempty"`
	Scatter *scatter.Params `json:"scatter,omitempty"`

	// DeadlineMS bounds the whole job in wall-clock milliseconds (0: no
	// deadline). Excluded from the canonical hash: it cannot change the
	// result, only whether one is produced.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// MaxNodes and MaxCores bound the cluster shape a spec may ask for. A
// simulated run keeps state per node (and per pair of nodes) in the
// process that runs it, a dist run forks a process per node, and a Do
// commonly starts a VP per core; the bounds sit well above every shape
// the repository runs (ppm-figures sweeps up to 64 nodes of 4 cores).
const (
	MaxNodes = 256
	MaxCores = 256
)

// Normalize fills defaults in place, the application's block by its
// Params.WithDefaults, and returns the spec. Callers must normalize
// before hashing or running, so equivalent submissions canonicalize
// identically.
func (s *Spec) Normalize() *Spec {
	if s.Backend == "" {
		s.Backend = BackendSim
	}
	if s.Nodes == 0 {
		s.Nodes = 2
	}
	if s.Cores == 0 {
		s.Cores = 4
	}
	if s.Preset == "" {
		s.Preset = "franklin"
	}
	if a, ok := apps[s.App]; ok {
		a.normalize(s)
	}
	return s
}

// Validate reports the first problem with a normalized spec, structural
// or in the application's parameters (the application's own message, as
// it would give at the top of a run). A spec that passes is one the
// application will start on, so a bad submission is refused before it
// reaches a queue or an engine.
func (s *Spec) Validate() error {
	a, ok := apps[s.App]
	if !ok {
		return fmt.Errorf("jobspec: %w", dist.CheckApp(s.App))
	}
	switch s.Backend {
	case BackendSim, BackendParallel, BackendDist:
	default:
		return fmt.Errorf("jobspec: unknown backend %q (want sim, parallel, or dist)", s.Backend)
	}
	if s.Nodes <= 0 || s.Nodes > MaxNodes {
		return fmt.Errorf("jobspec: nodes must be in [1,%d], got %d", MaxNodes, s.Nodes)
	}
	if s.Cores <= 0 || s.Cores > MaxCores {
		return fmt.Errorf("jobspec: cores must be in [1,%d], got %d", MaxCores, s.Cores)
	}
	if _, err := s.Machine(); err != nil {
		return err
	}
	if s.DeadlineMS < 0 {
		return fmt.Errorf("jobspec: deadline_ms must be non-negative, got %d", s.DeadlineMS)
	}
	return a.params(s).Validate()
}

// Machine resolves the preset name into a cost model.
func (s *Spec) Machine() (*machine.Machine, error) {
	switch s.Preset {
	case "franklin", "":
		return machine.Franklin(), nil
	case "generic":
		return machine.Generic(), nil
	default:
		return nil, fmt.Errorf("jobspec: unknown machine preset %q (want franklin or generic)", s.Preset)
	}
}

// Options builds the core.Options this spec runs under. The caller has
// normalized and validated the spec.
func (s *Spec) Options() core.Options {
	mach, _ := s.Machine()
	return core.Options{
		Nodes:          s.Nodes,
		CoresPerNode:   s.Cores,
		Machine:        mach,
		NoBundling:     s.NoBundling,
		NoOverlap:      s.NoOverlap,
		NoReadCache:    s.NoReadCache,
		StaticSchedule: s.Static,
		Parallel:       s.Backend == BackendParallel,
	}
}

// AppSpec converts the application's parameter block into the
// distributed runtime's AppSpec (value semantics; an absent block
// becomes zero params).
func (s *Spec) AppSpec() dist.AppSpec {
	if a, ok := apps[s.App]; ok {
		return a.appSpec(s)
	}
	return dist.AppSpec{App: s.App}
}

// Canonical returns the canonical byte encoding of a normalized spec: a
// versioned, explicit-field-order serialization in which every integer
// is fixed-width little-endian and every float is its IEEE-754 bit
// pattern. JSON field order, whitespace, float formatting, and absent-
// vs-zero distinctions therefore cannot perturb the hash; only values
// that can change the result do. DeadlineMS is deliberately excluded.
func (s *Spec) Canonical() []byte {
	var c canon
	c.str("ppm-jobspec-v1")
	c.str(s.App)
	c.str(s.Backend)
	c.u64(uint64(s.Nodes), uint64(s.Cores))
	c.str(s.Preset)
	c.bools(s.NoBundling, s.NoOverlap, s.NoReadCache, s.Static)
	if a, ok := apps[s.App]; ok {
		c.u64(a.params(s).Canonical()...)
	}
	return c.buf
}

// Hash returns the hex SHA-256 of the canonical encoding: the job's
// content address.
func (s *Spec) Hash() string {
	sum := sha256.Sum256(s.Canonical())
	return hex.EncodeToString(sum[:])
}

// canon accumulates the canonical encoding. Strings are length-prefixed
// so field boundaries can never alias across values.
type canon struct{ buf []byte }

func (c *canon) str(s string) {
	c.u64(uint64(len(s)))
	c.buf = append(c.buf, s...)
}

func (c *canon) u64(vs ...uint64) {
	for _, v := range vs {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, v)
	}
}

func (c *canon) bools(vs ...bool) {
	for _, v := range vs {
		b := byte(0)
		if v {
			b = 1
		}
		c.buf = append(c.buf, b)
	}
}

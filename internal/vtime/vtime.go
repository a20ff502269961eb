// Package vtime provides the virtual-time primitives used by the cluster
// simulator: a time type, duration helpers, and busy-resource tracking for
// modeling serialized hardware such as NICs and links.
//
// Virtual time is a float64 number of seconds since the start of a run.
// All arithmetic on virtual time is performed in a deterministic order by
// the cooperative scheduler, so results are bit-reproducible across runs.
package vtime

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in seconds since the start of the run.
type Time float64

// Duration is a span of virtual time, in seconds.
type Duration float64

// Zero is the origin of virtual time.
const Zero Time = 0

// Never is a sentinel meaning "no scheduled time"; it sorts after every
// reachable time.
const Never Time = Time(math.MaxFloat64)

// Add returns t advanced by d. Negative durations are rejected because the
// simulator never moves a clock backwards.
func (t Time) Add(d Duration) Time {
	if d < 0 {
		panic(fmt.Sprintf("vtime: negative duration %v", d))
	}
	return t + Time(d)
}

// Sub returns the duration from u to t (t - u).
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t precedes u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t follows u.
func (t Time) After(u Time) bool { return t > u }

// Max returns the later of t and u.
func (t Time) Max(u Time) Time {
	if t > u {
		return t
	}
	return u
}

// Seconds returns the time as a float64 second count.
func (t Time) Seconds() float64 { return float64(t) }

// String formats the time with microsecond-scale readability.
func (t Time) String() string { return formatSeconds(float64(t)) }

// Seconds returns the duration as a float64 second count.
func (d Duration) Seconds() float64 { return float64(d) }

// String formats the duration with microsecond-scale readability.
func (d Duration) String() string { return formatSeconds(float64(d)) }

func formatSeconds(s float64) string {
	abs := math.Abs(s)
	switch {
	case s == 0:
		return "0s"
	case abs >= 1:
		return fmt.Sprintf("%.6gs", s)
	case abs >= 1e-3:
		return fmt.Sprintf("%.6gms", s*1e3)
	case abs >= 1e-6:
		return fmt.Sprintf("%.6gus", s*1e6)
	default:
		return fmt.Sprintf("%.6gns", s*1e9)
	}
}

// MaxDuration returns the maximum of a and b.
func MaxDuration(a, b Duration) Duration {
	if a > b {
		return a
	}
	return b
}

// Resource models a serially reusable piece of hardware (a NIC, a link, a
// DMA engine). Work items occupy it back to back: a request that arrives
// while the resource is busy waits until it frees.
//
// A Resource is not internally synchronized, and its results depend on
// acquisition order, so order is part of the simulator's deterministic
// schedule: under the cluster's parallel scheduler every Acquire and
// FreeAt happens while the calling process holds the serialization
// turn, which both orders the calls exactly as the sequential scheduler
// would and publishes the mutations across goroutines through the
// scheduler's channel operations. Charging order therefore never
// changes between scheduler modes.
type Resource struct {
	name string
	free Time // earliest time the resource is idle
	used Duration
	ops  int64
}

// NewResource returns an idle resource with the given diagnostic name.
func NewResource(name string) *Resource {
	return &Resource{name: name}
}

// Name returns the diagnostic name given at construction.
func (r *Resource) Name() string { return r.name }

// Acquire occupies the resource for d starting no earlier than at, and
// returns the completion time. The start is max(at, previous completion),
// which models FIFO serialization.
func (r *Resource) Acquire(at Time, d Duration) Time {
	if d < 0 {
		panic(fmt.Sprintf("vtime: resource %q acquired for negative duration %v", r.name, d))
	}
	start := at.Max(r.free)
	r.free = start.Add(d)
	r.used += d
	r.ops++
	return r.free
}

// FreeAt returns the earliest time the resource is idle.
func (r *Resource) FreeAt() Time { return r.free }

// Utilized returns the total busy duration accumulated so far.
func (r *Resource) Utilized() Duration { return r.used }

// Ops returns how many acquisitions have occurred.
func (r *Resource) Ops() int64 { return r.ops }

// Reset returns the resource to the idle state at time zero.
func (r *Resource) Reset() {
	r.free = Zero
	r.used = 0
	r.ops = 0
}

// ResourceState is an immutable snapshot of a Resource's accounting.
// Reports embed it so that equivalence tests can compare the full
// modeled hardware state (not just process clocks) bit for bit between
// scheduler modes.
type ResourceState struct {
	Name string
	Free Time
	Used Duration
	Ops  int64
}

// State returns a snapshot of the resource's accounting.
func (r *Resource) State() ResourceState {
	return ResourceState{Name: r.name, Free: r.free, Used: r.used, Ops: r.ops}
}

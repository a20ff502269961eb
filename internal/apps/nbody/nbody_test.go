package nbody

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"ppm/internal/core"
	"ppm/internal/machine"
	"ppm/internal/octree"
)

var small = Params{N: 300, Steps: 2, Theta: 0.5, Eps: 0.05, DT: 0.01, Seed: 7}

func TestValidation(t *testing.T) {
	bad := []Params{
		{N: 0, Steps: 1, Theta: 0.5, Eps: 0.1, DT: 0.01},
		{N: 10, Steps: -1, Theta: 0.5, Eps: 0.1, DT: 0.01},
		{N: 10, Steps: 1, Theta: -1, Eps: 0.1, DT: 0.01},
		{N: 10, Steps: 1, Theta: 0.5, Eps: 0, DT: 0.01},
		{N: 10, Steps: 1, Theta: 0.5, Eps: 0.1, DT: 0},
	}
	for i, p := range bad {
		if _, err := RunPartitioned(p, 1); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, err := RunPartitioned(small, 0); err == nil {
		t.Error("parts=0 accepted")
	}
}

func TestInitStateShape(t *testing.T) {
	s := InitState(small)
	var mass float64
	for i := 0; i < small.N; i++ {
		mass += s.M[i]
		r := math.Sqrt(s.PX[i]*s.PX[i] + s.PY[i]*s.PY[i] + s.PZ[i]*s.PZ[i])
		if r > 10.0001 {
			t.Fatalf("body %d outside clipped radius: %v", i, r)
		}
	}
	if math.Abs(mass-1) > 1e-9 {
		t.Errorf("total mass %v, want 1", mass)
	}
	// Determinism of initial conditions.
	s2 := InitState(small)
	for i := range s.PX {
		if s.PX[i] != s2.PX[i] || s.VZ[i] != s2.VZ[i] {
			t.Fatal("InitState nondeterministic")
		}
	}
}

// The partitioned tree forces must approximate direct summation.
func TestForcesAccurateVsDirect(t *testing.T) {
	p := small
	p.Steps = 0
	s := InitState(p)
	bodies := s.Bodies(0, p.N)
	// Partitioned forest with 3 parts.
	const parts = 3
	var flats [parts][]float64
	for r := 0; r < parts; r++ {
		lo, hi := r*p.N/parts, (r+1)*p.N/parts
		sub := bodies[lo:hi]
		cx, cy, cz, h := octree.Bounds(sub)
		flats[r] = octree.Build(sub, cx, cy, cz, h).Flatten()
	}
	var worst float64
	for i := 0; i < p.N; i += 17 {
		var ax, ay, az float64
		for r := 0; r < parts; r++ {
			gx, gy, gz, _ := octree.Accel(octree.NewSliceSource(flats[r]),
				s.PX[i], s.PY[i], s.PZ[i], p.Theta, p.Eps)
			ax += gx
			ay += gy
			az += gz
		}
		dx, dy, dz := octree.DirectAccel(bodies, s.PX[i], s.PY[i], s.PZ[i], p.Eps)
		mag := math.Sqrt(dx*dx+dy*dy+dz*dz) + 1e-12
		err := math.Sqrt((ax-dx)*(ax-dx)+(ay-dy)*(ay-dy)+(az-dz)*(az-dz)) / mag
		if err > worst {
			worst = err
		}
	}
	if worst > 0.05 {
		t.Errorf("worst relative force error %v", worst)
	}
}

func statesEqual(a, b *State) bool {
	for i := range a.PX {
		if a.PX[i] != b.PX[i] || a.PY[i] != b.PY[i] || a.PZ[i] != b.PZ[i] ||
			a.VX[i] != b.VX[i] || a.VY[i] != b.VY[i] || a.VZ[i] != b.VZ[i] {
			return false
		}
	}
	return true
}

func TestPPMMatchesPartitionedReferenceBitwise(t *testing.T) {
	for _, nodes := range []int{1, 2, 4} {
		ref, err := RunPartitioned(small, nodes)
		if err != nil {
			t.Fatal(err)
		}
		got, rep, err := RunPPM(core.Options{Nodes: nodes, Machine: machine.Generic()}, small)
		if err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
		if !statesEqual(ref, got) {
			t.Errorf("nodes=%d: PPM trajectory differs from reference", nodes)
		}
		if nodes > 1 && rep.Totals.RemoteReadElems == 0 {
			t.Errorf("nodes=%d: no remote tree reads", nodes)
		}
	}
}

// Pins the model around the tree traversal: the bits of the final positions
// (FNV-1a over the Float64bits of PX, PY, PZ), of the modeled makespan, and
// the counters a record's first touch feeds. Captured before the record
// cache moved into octree; how records are cached on the host must not move
// any of them, under either scheduler (PPM_PARALLEL=1).
func TestPPMGoldenPositionsAndCounters(t *testing.T) {
	golden := []struct {
		nodes                                    int
		pos, makespan                            uint64
		reads, remoteReads, bundlesOut, bytesOut int64
	}{
		{1, 0x8315b08c8f613504, 0x3f67f84f06a35d8f, 72960, 0, 0, 0},
		{2, 0x3ac07f741e0cf0ae, 0x3f5dc2ca072ef4e9, 135616, 8476, 20, 138176},
		{4, 0x4dac9e891dfc9203, 0x3f548aa4a3f03360, 272576, 25554, 63, 416928},
	}
	for _, g := range golden {
		s, rep, err := RunPPM(core.Options{Nodes: g.nodes, Machine: machine.Franklin()}, small)
		if err != nil {
			t.Fatalf("nodes=%d: %v", g.nodes, err)
		}
		h := fnv.New64a()
		for _, a := range [][]float64{s.PX, s.PY, s.PZ} {
			for _, v := range a {
				h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
			}
		}
		if h.Sum64() != g.pos {
			t.Errorf("nodes=%d: positions hash %#x, want %#x", g.nodes, h.Sum64(), g.pos)
		}
		if m := math.Float64bits(rep.Makespan().Seconds()); m != g.makespan {
			t.Errorf("nodes=%d: makespan bits %#x, want %#x", g.nodes, m, g.makespan)
		}
		tt := rep.Totals
		if tt.SharedReads != g.reads || tt.RemoteReadElems != g.remoteReads ||
			tt.BundlesOut != g.bundlesOut || tt.BytesOut != g.bytesOut {
			t.Errorf("nodes=%d: reads %d remote %d bundles %d bytes %d, want %d %d %d %d", g.nodes,
				tt.SharedReads, tt.RemoteReadElems, tt.BundlesOut, tt.BytesOut,
				g.reads, g.remoteReads, g.bundlesOut, g.bytesOut)
		}
	}
}

func TestMPIMatchesPartitionedReferenceBitwise(t *testing.T) {
	for _, ranks := range []int{1, 2, 4} {
		ref, err := RunPartitioned(small, ranks)
		if err != nil {
			t.Fatal(err)
		}
		got, rep, err := RunMPI(MPIOptions{Nodes: ranks, CoresPerNode: 1, Machine: machine.Generic()}, small)
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		if !statesEqual(ref, got) {
			t.Errorf("ranks=%d: MPI trajectory differs from reference", ranks)
		}
		if ranks > 1 && rep.Totals.BytesSent == 0 {
			t.Errorf("ranks=%d: no replication traffic", ranks)
		}
	}
}

func TestPPMEqualsMPIWithAlignedPartitions(t *testing.T) {
	a, _, err := RunPPM(core.Options{Nodes: 3, Machine: machine.Generic()}, small)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := RunMPI(MPIOptions{Nodes: 3, CoresPerNode: 1, Machine: machine.Generic()}, small)
	if err != nil {
		t.Fatal(err)
	}
	if !statesEqual(a, b) {
		t.Error("PPM and MPI trajectories differ despite identical partitioning")
	}
}

// The replication baseline must move far more bytes than PPM's bundled
// fine-grained reads at equal node counts (the paper's Figure 3 driver).
func TestReplicationTrafficDwarfsPPM(t *testing.T) {
	p := Params{N: 1200, Steps: 1, Theta: 0.5, Eps: 0.05, DT: 0.01, Seed: 3}
	_, ppmRep, err := RunPPM(core.Options{Nodes: 4, Machine: machine.Franklin()}, p)
	if err != nil {
		t.Fatal(err)
	}
	_, mpiRep, err := RunMPI(MPIOptions{Nodes: 4, Machine: machine.Franklin()}, p)
	if err != nil {
		t.Fatal(err)
	}
	ppmBytes := ppmRep.Totals.BytesOut
	mpiBytes := mpiRep.Totals.BytesSent
	if mpiBytes < 2*ppmBytes {
		t.Errorf("expected replication to dominate: MPI %d bytes vs PPM %d", mpiBytes, ppmBytes)
	}
}

func TestEnergyNotExploding(t *testing.T) {
	p := small
	p.Steps = 5
	s, err := RunPartitioned(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.N; i++ {
		if math.IsNaN(s.PX[i]) || math.Abs(s.PX[i]) > 100 {
			t.Fatalf("body %d diverged: %v", i, s.PX[i])
		}
	}
}

// TestSecondRunAllocPin: a VP's record cache hands its chunks and its
// indexes on when the force phase ends, and a node's tree goes back to
// the pool once it is flattened into the forest, so a second simulator
// run of one spec draws them from the pools instead of allocating 13 KiB
// per 64 records each VP touches, an index per tree and VP, and a tree
// per node and step. With the collector off the pools keep what the first
// run left. Before the caches' release the second run allocated 25 MiB;
// with it, 3.55 MiB; with the indexes and trees pooled and flattened in
// place, 0.56 MiB (go1.24, linux/amd64).
func TestSecondRunAllocPin(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	p := Params{N: 2000, Steps: 2, Theta: 0.5, Eps: 0.05, DT: 0.01, Seed: 7}
	o := core.Options{Nodes: 4, CoresPerNode: 4, Machine: machine.Franklin()}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if _, _, err := RunPPM(o, p); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := RunPPM(o, p); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	second := after.TotalAlloc - before.TotalAlloc
	t.Logf("the second run allocated %.2f MiB", float64(second)/(1<<20))
	const bound = 3 << 19 // 1.5 MiB
	if second >= bound {
		t.Errorf("the second run allocated %d bytes, want less than %d: record chunks, indexes or trees were allocated again instead of drawn from the pools", second, bound)
	}
}

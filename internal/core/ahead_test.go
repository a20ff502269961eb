package core

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"ppm/internal/machine"
)

// A VP that ends a phase body does not wait for the commit: it runs on,
// and may Charge before the phase it just left has been accounted. The
// commit therefore reads the snapshot the VP took at the phase end, never
// the live accumulator. aheadProgram is built to show any mix-up: a
// three-phase body (node, global, node) that charges a rank-dependent
// amount before, inside, between and after its phases, with ranks that
// return at every ordinal, run as three Dos on one warm doRun. The golden
// values were captured from the goroutine-per-VP scheduler, where every VP
// parked at every phase end, at commit 1e1b448.

const aheadNodes, aheadK = 2, 24

func aheadProgram(rt *Runtime) {
	a := AllocNode[float64](rt, "ahead.a", aheadK)
	g := AllocGlobal[float64](rt, "ahead.g", aheadNodes*aheadK)
	body := func(vp *VP) {
		r := vp.NodeRank()
		vp.ChargeFlops(int64(1000 + 70*r + 400*vp.Node()))
		if r%6 == 5 {
			return // never enters a phase
		}
		vp.NodePhase(func() {
			a.Write(vp, r, a.Read(vp, r)+1)
			vp.ChargeFlops(int64(30 * r))
		})
		vp.ChargeFlops(int64(500 + 110*r))
		if r%6 == 4 {
			return // one phase
		}
		vp.GlobalPhase(func() {
			vp.ChargeFlops(int64(17 * r))
			s := g.Read(vp, (vp.GlobalRank()*7+aheadK)%g.Len())
			g.Add(vp, (vp.GlobalRank()*5+3)%g.Len(), s+1)
		})
		vp.ChargeFlops(int64(200 + 130*r))
		if r%6 == 3 {
			vp.ChargeMem(4096)
			return // two phases
		}
		vp.NodePhase(func() { a.Add(vp, r, 1) })
		vp.ChargeFlops(int64(50 + r))
	}
	for i := 0; i < 3; i++ {
		rt.Do(aheadK, body)
	}
}

// aheadFingerprint renders everything the program can move in a Report:
// the makespan and, per node, every program-level counter and the bits of
// the three time accumulators (the substrate blocks Wire, PlanCache and
// Rescale are not the program's).
func aheadFingerprint(rep *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "makespan %#x\n", math.Float64bits(rep.Makespan().Seconds()))
	for n, s := range rep.PerNode {
		fmt.Fprintf(&b, "node %d: dos %d vps %d gp %d np %d rd %d wr %d rre %d rwe %d bo %d bi %d byo %d byi %d compute %#x comm %#x apply %#x\n",
			n, s.Dos, s.VPsStarted, s.GlobalPhases, s.NodePhases, s.SharedReads, s.SharedWrites,
			s.RemoteReadElems, s.RemoteWriteElems, s.BundlesOut, s.BundlesIn, s.BytesOut, s.BytesIn,
			math.Float64bits(s.PhaseComputeTime.Seconds()), math.Float64bits(s.PhaseCommTime.Seconds()),
			math.Float64bits(s.PhaseApplyTime.Seconds()))
	}
	return b.String()
}

const aheadGoldenSim = `makespan 0x3f2281fad0f2f574
node 0: dos 3 vps 72 gp 3 np 6 rd 108 wr 144 rre 30 rwe 18 bo 6 bi 3 byo 768 byi 288 compute 0x3f1a490f3a1b090f comm 0x0 apply 0x3ed9cf60b02bf2c5
node 1: dos 3 vps 72 gp 3 np 6 rd 108 wr 144 rre 30 rwe 18 bo 6 bi 3 byo 768 byi 288 compute 0x3f1c2c3e48fc4d61 comm 0x0 apply 0x3ed9cf60b02bf2c5
`

const aheadGoldenStatic = `makespan 0x3f289018064929c4
node 0: dos 3 vps 72 gp 3 np 6 rd 108 wr 144 rre 30 rwe 18 bo 6 bi 3 byo 768 byi 288 compute 0x3f232fed09817eb2 comm 0x0 apply 0x3ed9cf60b02bf2c5
node 1: dos 3 vps 72 gp 3 np 6 rd 108 wr 144 rre 30 rwe 18 bo 6 bi 3 byo 768 byi 288 compute 0x3f24218490f220dc comm 0x0 apply 0x3ed9cf60b02bf2c5
`

const aheadGoldenMesh = `makespan 0x0
node 0: dos 3 vps 72 gp 3 np 6 rd 108 wr 144 rre 30 rwe 18 bo 6 bi 3 byo 768 byi 288 compute 0x0 comm 0x0 apply 0x0
node 1: dos 3 vps 72 gp 3 np 6 rd 108 wr 144 rre 30 rwe 18 bo 6 bi 3 byo 768 byi 288 compute 0x0 comm 0x0 apply 0x0
`

func TestChargesOfVPsRunningAheadMatchGolden(t *testing.T) {
	t.Setenv("PPM_PLAN_CACHE", "")
	for _, c := range []struct {
		name string
		opt  func(o *Options)
		want string
	}{
		{"Run", func(o *Options) {}, aheadGoldenSim},
		{"Run, parallel scheduler", func(o *Options) { o.Parallel = true }, aheadGoldenSim},
		{"Run, plan cache off", func(o *Options) { o.NoPlanCache = true }, aheadGoldenSim},
		{"Run, static schedule", func(o *Options) { o.StaticSchedule = true }, aheadGoldenStatic},
	} {
		o := Options{Nodes: aheadNodes, CoresPerNode: 4, Machine: machine.Generic()}
		c.opt(&o)
		if got := aheadFingerprint(mustRun(t, o, aheadProgram)); got != c.want {
			t.Errorf("%s:\n%swant\n%s", c.name, got, c.want)
		}
	}

	// The loop mesh: every rank reports its own node; virtual time stays
	// zero, the counters are the simulator's.
	mesh := newLoopMesh(aheadNodes)
	reps := make([]*Report, aheadNodes)
	errs := make([]error, aheadNodes)
	var wg sync.WaitGroup
	for r := 0; r < aheadNodes; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := Options{Nodes: aheadNodes, CoresPerNode: 4, Machine: machine.Generic()}
			reps[r], errs[r] = RunDist(o, mesh.engs[r], aheadProgram)
		}()
	}
	wg.Wait()
	merged := &Report{PerNode: make([]NodeStats, aheadNodes)}
	for r := range reps {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		merged.PerNode[r] = reps[r].PerNode[r]
	}
	if got := aheadFingerprint(merged); got != aheadGoldenMesh {
		t.Errorf("loop mesh:\n%swant\n%s", got, aheadGoldenMesh)
	}
}

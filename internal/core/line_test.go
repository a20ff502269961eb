package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ppm/internal/machine"
	"ppm/internal/mp"
	"ppm/internal/rng"
	"ppm/internal/wire"
)

// A demand miss fetches whole lines (fetchLineBytes, distFetch). These
// tests pin the rule itself on arrays without a runtime, then its effect
// through the access paths over the in-process mesh of distcommit_test.go.

// testGlobal allocates a Global on a hand-built state, as newFastpathRig
// does: no cluster and no Do, only what the read path touches.
func testGlobal[T Elem](gs *globalState, n int) *Global[T] {
	return AllocGlobal[T](&Runtime{gs: gs}, fmt.Sprintf("a%d", len(gs.arrays)), n)
}

func runBits(n int, cov []intRun) []bool {
	b := make([]bool, n)
	for _, r := range cov {
		for j := r.lo; j < r.hi; j++ {
			b[j] = true
		}
	}
	return b
}

// checkLineRule drives claimLines with seeded requests against one array
// whose cover and in-flight set evolve as distFetch would evolve them, and
// checks every claim against the rule worked out element by element.
func checkLineRule[T Elem](t *testing.T, r *rng.RNG, n, parts int) {
	t.Helper()
	g := testGlobal[T](&globalState{nodes: parts}, n)
	line := fetchLineBytes / g.es
	for step := 0; step < 30; step++ {
		owner := r.Intn(parts)
		plo, phi := g.bnd[owner], g.bnd[owner+1]
		if plo == phi {
			continue // more parts than elements
		}
		// Scalars, cg-sized blocks, and blocks longer than a line.
		lo := plo + r.Intn(phi-plo)
		hi := lo + 1
		switch r.Intn(3) {
		case 1:
			hi = min(lo+3, phi)
		case 2:
			hi = lo + 1 + r.Intn(min(phi-lo, 3*line/2))
		}
		held := runBits(n, g.dcov)
		for j, p := range runBits(n, g.dpend) {
			held[j] = held[j] || p
		}
		// The rule: every line (clipped to the owner) holding an element of
		// [lo, hi) that is neither covered nor in flight, minus what is.
		want := make([]bool, n)
		for l := lo - lo%line; l < hi; l += line {
			if !slices.Contains(held[max(l, lo):min(l+line, hi)], false) {
				continue
			}
			for j := max(l, plo); j < min(l+line, phi); j++ {
				want[j] = !held[j]
			}
		}

		mine := g.claimLines(owner, lo, hi)

		where := fmt.Sprintf("n=%d parts=%d es=%d step %d: claim for [%d:%d) of owner %d [%d:%d)", n, parts, g.es, step, lo, hi, owner, plo, phi)
		got := make([]bool, n)
		prevHi := -1
		for _, c := range mine {
			if c.Array != g.id || c.Lo >= c.Hi || c.Lo < prevHi {
				t.Fatalf("%s: %v is empty, unsorted or overlapping", where, mine)
			}
			prevHi = c.Hi
			if c.Lo < plo || c.Hi > phi {
				t.Fatalf("%s: [%d:%d) leaves the owner's partition", where, c.Lo, c.Hi)
			}
			// An end sits on a line boundary, on the owner's bound, or
			// against something already held.
			if c.Lo%line != 0 && c.Lo != plo && !held[c.Lo-1] {
				t.Fatalf("%s: [%d:%d) starts mid-line", where, c.Lo, c.Hi)
			}
			if c.Hi%line != 0 && c.Hi != phi && !held[c.Hi] {
				t.Fatalf("%s: [%d:%d) ends mid-line", where, c.Lo, c.Hi)
			}
			for j := c.Lo; j < c.Hi; j++ {
				if held[j] {
					t.Fatalf("%s: [%d:%d) re-requests element %d, already covered or in flight", where, c.Lo, c.Hi, j)
				}
				got[j] = true
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: claimed %v, which is not the lines the miss touches", where, mine)
		}
		pend := runBits(n, g.dpend)
		for j := range got {
			if got[j] && !pend[j] {
				t.Fatalf("%s: element %d claimed but not marked in flight", where, j)
			}
		}
		// Each claim then lands, fails, or stays in flight for a while.
		for _, c := range mine {
			switch r.Intn(3) {
			case 0:
				g.dpend = coverSub(g.dpend, c.Lo, c.Hi)
				g.dcov = coverAdd(g.dcov, c.Lo, c.Hi)
			case 1:
				g.dpend = coverSub(g.dpend, c.Lo, c.Hi)
			}
		}
	}
}

func TestClaimLinesRule(t *testing.T) {
	r := rng.New(1704)
	type shape struct{ n, parts int }
	shapes := []shape{{10, 3}, {2, 5}, {511, 1}, {512, 2}, {3*512 + 7, 3}, {4096, 2}, {8192, 37}}
	// The partition quick-check's space, and the same space scaled until
	// partitions hold several lines of every element size.
	for i := 0; i < 40; i++ {
		n, parts := r.Intn(500)+1, r.Intn(37)+1
		shapes = append(shapes, shape{n, parts}, shape{41 * n, parts})
	}
	for _, s := range shapes {
		checkLineRule[uint8](t, r, s.n, s.parts)
		checkLineRule[int32](t, r, s.n, s.parts)
		checkLineRule[float64](t, r, s.n, s.parts)
	}
}

func TestClaimLinesByHand(t *testing.T) {
	claim := func(g *Global[float64], owner, lo, hi int) string {
		return fmt.Sprint(g.claimLines(owner, lo, hi))
	}
	// An array smaller than a line: the line is the owner's partition.
	small := testGlobal[float64](&globalState{nodes: 3}, 10) // [0:4) [4:7) [7:10)
	if got := claim(small, 1, 5, 6); got != "[{0 4 7}]" {
		t.Errorf("n=10: claim for element 5 = %s, want owner 1's whole partition [4:7)", got)
	}
	// Partition bounds off the line grid clip the first and last line.
	odd := testGlobal[float64](&globalState{nodes: 2}, 3000) // [0:1500) [1500:3000)
	if got := claim(odd, 1, 1500, 1501); got != "[{0 1500 1536}]" {
		t.Errorf("n=3000: claim for element 1500 = %s, want [1500:1536)", got)
	}
	if got := claim(odd, 1, 2999, 3000); got != "[{0 2560 3000}]" {
		t.Errorf("n=3000: claim for element 2999 = %s, want [2560:3000)", got)
	}
	g := testGlobal[float64](&globalState{nodes: 2}, 4096) // owner 1 holds lines 4..7
	if got := claim(g, 1, 2100, 2101); got != "[{0 2048 2560}]" {
		t.Errorf("claim for element 2100 = %s, want its line [2048:2560)", got)
	}
	// That line is now in flight: a gap wholly inside it claims nothing,
	// and in particular does not widen to the next line.
	if got := claim(g, 1, 2200, 2203); got != "[]" {
		t.Errorf("claim inside an in-flight line = %s, want none", got)
	}
	// A block straddling it and the next line claims the next line only.
	if got := claim(g, 1, 2558, 2562); got != "[{0 2560 3072}]" {
		t.Errorf("claim across an in-flight line's end = %s, want [2560:3072)", got)
	}
	// Holes in the cover split a line's claim; a block over two lines
	// claims both in one go.
	g.dcov = coverAdd(g.dcov, 3100, 3110)
	if got := claim(g, 1, 3500, 3600); got != "[{0 3072 3100} {0 3110 4096}]" {
		t.Errorf("claim over lines 6 and 7 around a covered stretch = %s", got)
	}
}

// A block that spans three remote owners costs one request per owner:
// whole partitions where the block covers them, the touched lines where
// it ends inside one.
func TestReadBlockFetchesOncePerOwner(t *testing.T) {
	const nodes, n = 4, 2800 // partitions of 700 elements
	mesh := newLoopMesh(nodes)
	buf := make([]float64, 1500)
	errs := make([]error, nodes)
	var wg sync.WaitGroup
	for r := 0; r < nodes; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			opt := Options{Nodes: nodes, CoresPerNode: 2, Machine: machine.Generic()}
			_, errs[r] = RunDist(opt, mesh.engs[r], func(rt *Runtime) {
				g := AllocGlobal[float64](rt, "span", n)
				lo, _ := g.OwnerRange(rt)
				for i, l := 0, g.Local(rt); i < len(l); i++ {
					l[i] = 1.5 * float64(lo+i)
				}
				rt.Do(1, func(vp *VP) {
					vp.GlobalPhase(func() {
						if vp.Node() == 0 {
							g.ReadBlock(vp, 650, 2150, buf)
						}
					})
				})
			})
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for i, v := range buf {
		if v != 1.5*float64(650+i) {
			t.Fatalf("element %d read as %v, want %v", 650+i, v, 1.5*float64(650+i))
		}
	}
	want := "[[{0 700 1400}] [{0 1400 2100}] [{0 2100 2560}]]"
	if got := fmt.Sprint(mesh.engs[0].reqs); got != want {
		t.Errorf("rank 0 sent %s, want %s", got, want)
	}
}

// 64 VPs each miss on a different element of one remote line: one of them
// fetches the line, the others wait for it, and the owner sees one request.
func TestOneRequestPerLineAcrossVPs(t *testing.T) {
	const n, k = 2048, 64 // rank 1 owns [1024:2048), lines 2 and 3
	mesh := newLoopMesh(2)
	mesh.engs[0].fetchDelay = 5 * time.Millisecond // the others arrive while it is in flight
	got := make([]float64, k)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			opt := Options{Nodes: 2, CoresPerNode: 4, Machine: machine.Generic()}
			_, errs[r] = RunDist(opt, mesh.engs[r], func(rt *Runtime) {
				g := AllocGlobal[float64](rt, "line", n)
				lo, _ := g.OwnerRange(rt)
				for i, l := 0, g.Local(rt); i < len(l); i++ {
					l[i] = float64(lo+i) + 0.25
				}
				rt.Do(k, func(vp *VP) {
					vp.GlobalPhase(func() {
						if vp.Node() == 0 {
							got[vp.NodeRank()] = g.Read(vp, 1024+7*vp.NodeRank())
						}
					})
				})
			})
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for v, x := range got {
		if want := float64(1024+7*v) + 0.25; x != want {
			t.Errorf("VP %d read %v, want %v", v, x, want)
		}
	}
	if got := fmt.Sprint(mesh.engs[0].reqs); got != "[[{0 1024 1536}]]" {
		t.Errorf("rank 0 sent %s, want the one line [1024:1536) once", got)
	}
	if len(mesh.engs[1].reqs) != 0 {
		t.Errorf("rank 1 read nothing remote yet sent %v", mesh.engs[1].reqs)
	}
}

// A VP whose whole gap is in flight from another VP sends nothing and
// claims nothing: it waits, and is released by the install.
func TestMissWhollyInFlightWaits(t *testing.T) {
	mesh := newLoopMesh(2)
	gs := &globalState{dist: mesh.engs[0], nodes: 2}
	g := testGlobal[float64](gs, 4096)
	g.dpend = coverAdd(nil, 2048, 2560) // some other VP is fetching line 4
	// What that VP's install will have landed.
	if err := g.installRange(2100, 2101, mp.AppendElems(nil, []float64{42})); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		g.distFetch(1, 2100, 2103)
	}()
	select {
	case <-done:
		t.Fatal("distFetch returned while its range was still in flight")
	case <-time.After(50 * time.Millisecond):
	}
	g.dmu.Lock()
	if fmt.Sprint(g.dpend) != "[{2048 2560}]" {
		t.Errorf("the waiter changed the in-flight set to %v", g.dpend)
	}
	g.dpend = coverSub(g.dpend, 2048, 2560)
	g.dcov = coverAdd(g.dcov, 2048, 2560)
	g.dcnd.Broadcast()
	g.dmu.Unlock()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("distFetch still waiting after its range was installed")
	}
	if len(mesh.engs[0].reqs) != 0 {
		t.Errorf("the waiter sent %v", mesh.engs[0].reqs)
	}
	if c := gs.wireCoalesced.Load(); c != 1 {
		t.Errorf("ReadsCoalesced = %d, want the one waiter", c)
	}
	if g.held(2100) != 42 || g.footprint().Lines != 1 {
		t.Errorf("the waiter was released onto %v in %d lines, want the 42 installed in line 4 alone", g.held(2100), g.footprint().Lines)
	}
}

// cannedEngine answers every read request with the same bytes, or error,
// and allocates nothing doing so.
type cannedEngine struct {
	*loopEngine
	reply map[int][]byte
	err   map[int]error
	calls atomic.Int64
}

func (e *cannedEngine) FetchRanges(owner int, ranges []wire.ReadRange) ([]byte, error) {
	e.calls.Add(1)
	return e.reply[owner], e.err[owner]
}

// A warm phase open towards one owner runs on the coordinator and, once
// the covers have their working size, allocates nothing in core.
func TestWarmPhaseOpenOneOwnerDoesNotAllocate(t *testing.T) {
	eng := &cannedEngine{loopEngine: newLoopMesh(2).engs[0], reply: map[int][]byte{}}
	gs := &globalState{dist: eng, nodes: 2}
	a := testGlobal[float64](gs, 4096)
	b := testGlobal[int32](gs, 4096)
	d := &doRun{rt: &Runtime{gs: gs}}
	p := &phasePlan{fcov: [][]wire.ReadRange{nil, {
		{Array: 0, Lo: 2048, Hi: 2624}, {Array: 1, Lo: 3000, Hi: 3004}, {Array: 0, Lo: 4000, Hi: 4001},
	}}}
	eng.reply[1] = mp.AppendElems(nil, make([]float64, 576))
	eng.reply[1] = mp.AppendElems(eng.reply[1], []int32{7, 8, 9, 10})
	eng.reply[1] = mp.AppendElems(eng.reply[1], []float64{-3})
	open := func() {
		a.resetDistCache()
		b.resetDistCache()
		d.prefetchPlan(p)
	}
	open()
	if eng.calls.Load() != 1 || b.held(3003) != 10 || a.held(4000) != -3 {
		t.Fatalf("prefetch made %d requests and landed b[3003]=%d a[4000]=%v", eng.calls.Load(), b.held(3003), a.held(4000))
	}
	if got := fmt.Sprint(a.dcov, b.dcov); got != "[{2048 2624} {4000 4001}] [{3000 3004}]" {
		t.Fatalf("covers after the prefetch: %s", got)
	}
	if allocs := testing.AllocsPerRun(100, open); allocs != 0 {
		t.Errorf("a warm one-owner phase open allocated %v times", allocs)
	}
}

// Towards several owners the requests are all in flight at once; any
// owner's failure aborts the phase open.
func TestWarmPhaseOpenSeveralOwners(t *testing.T) {
	eng := &cannedEngine{loopEngine: newLoopMesh(3).engs[0], reply: map[int][]byte{}, err: map[int]error{}}
	gs := &globalState{dist: eng, nodes: 3}
	a := testGlobal[float64](gs, 300)
	d := &doRun{rt: &Runtime{gs: gs}}
	p := &phasePlan{fcov: [][]wire.ReadRange{nil, {{Array: 0, Lo: 100, Hi: 102}}, {{Array: 0, Lo: 250, Hi: 251}}}}
	eng.reply[1] = mp.AppendElems(nil, []float64{1, 2})
	eng.reply[2] = mp.AppendElems(nil, []float64{3})
	d.prefetchPlan(p)
	if a.held(101) != 2 || a.held(250) != 3 || fmt.Sprint(a.dcov) != "[{100 102} {250 251}]" {
		t.Fatalf("prefetch landed a[101]=%v a[250]=%v cover %v", a.held(101), a.held(250), a.dcov)
	}
	scratch := &d.pferrs[0]
	eng.err[2] = errors.New("owner 2 is gone")
	err := runRecovered(0, func() { d.prefetchPlan(p) })
	if err == nil || !strings.Contains(err.Error(), "owner 2 is gone") {
		t.Errorf("failed prefetch: err = %v", err)
	}
	if scratch != &d.pferrs[0] {
		t.Error("the per-owner error slice was reallocated")
	}
}

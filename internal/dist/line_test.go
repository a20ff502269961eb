package dist

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"ppm/internal/core"
)

// A demand miss brings its whole line back (core's fetchLineBytes), so a
// cold phase that reads a neighbour's boundary plane piecemeal — the
// first phase of every job, and every phase of a run without plans —
// costs a rank a few round trips, not one per piece.

const (
	haloPlane = 24 * 24
	haloNZ    = 8
	haloVPs   = 8
	haloIters = 3
)

// haloPlaneProg splits a 24x24x8 grid in z between two ranks. Every phase
// each rank's VPs read the neighbour's boundary plane, as 192 three-element
// blocks (cg's shape) or as 576 scalars (jacobi's), and write into their
// own boundary plane, which the neighbour reads in the next phase.
func haloPlaneProg(scalar bool, out [][]float64) func(rt *core.Runtime) {
	return func(rt *core.Runtime) {
		u := core.AllocGlobal[float64](rt, "halo.u", haloPlane*haloNZ)
		lo, hi := u.OwnerRange(rt)
		for i, l := 0, u.Local(rt); i < len(l); i++ {
			l[i] = math.Sqrt(float64(lo + i + 1))
		}
		theirs, mine := hi, hi-haloPlane // rank 0: the plane above its slab
		if rt.NodeID() == 1 {
			theirs, mine = lo-haloPlane, lo
		}
		for it := 0; it < haloIters; it++ {
			rt.Do(haloVPs, func(vp *core.VP) {
				vp.GlobalPhase(func() {
					var sum float64
					var blk [3]float64
					for b := vp.NodeRank(); b < haloPlane/3; b += haloVPs {
						s := theirs + 3*b
						if scalar {
							for i := s; i < s+3; i++ {
								sum += u.Read(vp, i)
							}
							continue
						}
						u.ReadBlock(vp, s, s+3, blk[:])
						sum += blk[0] + blk[1] + blk[2]
					}
					u.Write(vp, mine+61*vp.NodeRank(), sum*1e-3+float64(it))
				})
			})
		}
		out[rt.NodeID()] = append([]float64(nil), u.Local(rt)...)
	}
}

func TestColdHaloPlaneCostsLinesNotPieces(t *testing.T) {
	t.Setenv("PPM_PLAN_CACHE", "") // the runs below differ by Options alone
	for _, scalar := range []bool{false, true} {
		name := "blocks"
		if scalar {
			name = "scalars"
		}
		t.Run(name, func(t *testing.T) {
			run := func(noCache bool) ([][]float64, []core.NodeStats) {
				opt := distOpt(2)
				opt.NoPlanCache = noCache
				out := make([][]float64, 2)
				stats := make([]core.NodeStats, 2)
				runMesh(t, 2, func(rank int, eng *Engine) error {
					rep, err := core.RunDist(opt, eng, haloPlaneProg(scalar, out))
					if err != nil {
						return err
					}
					stats[rank] = rep.PerNode[rank]
					return nil
				})
				return out, stats
			}
			simOut := make([][]float64, 2)
			simRep, err := core.Run(distOpt(2), haloPlaneProg(scalar, simOut))
			if err != nil {
				t.Fatal(err)
			}
			on, onStats := run(false)
			off, offStats := run(true)
			for n := range simOut {
				sameF64(t, fmt.Sprintf("node %d plans on vs sim", n), on[n], simOut[n])
				sameF64(t, fmt.Sprintf("node %d plans off vs sim", n), off[n], simOut[n])
			}
			samePerNode(t, onStats, simRep.PerNode)
			samePerNode(t, offStats, simRep.PerNode)
			for n := range simOut {
				if e := simRep.PerNode[n].RemoteReadElems; e != haloIters*haloPlane {
					t.Fatalf("node %d read %d remote elements, want the plane %d times", n, e, haloIters)
				}
				// Without plans every phase is cold; with them the first is,
				// and a warm phase is one request to the one owner.
				if got := offStats[n].Wire.ReadReqsSent; got > 3*haloIters {
					t.Errorf("node %d, plans off: %d read requests over %d cold phases, want at most 3 a phase", n, got, haloIters)
				}
				if got := onStats[n].Wire.ReadReqsSent; got > 3+(haloIters-1) {
					t.Errorf("node %d, plans on: %d read requests, want at most 3 cold and one per warm phase", n, got)
				}
			}
		})
	}
}

// fakeOwner is an engine whose read server is the test's, whatever core
// installs.
type fakeOwner struct {
	*Engine
	server func(array, lo, hi int) ([]byte, error)
}

func (o fakeOwner) SetReadServer(func(array, lo, hi int) ([]byte, error)) {
	o.Engine.SetReadServer(o.server)
}

// A failed line fetch is reported as what it was: the error names the
// range that was on the wire, the line, not the element the VP asked for.
func TestLineFetchErrorsNameTheLine(t *testing.T) {
	prog := func(rt *core.Runtime) {
		u := core.AllocGlobal[float64](rt, "halo.u", haloPlane*haloNZ) // rank 1 owns [2304:4608)
		rt.Do(2, func(vp *core.VP) {
			vp.GlobalPhase(func() {
				if vp.Node() == 0 && vp.NodeRank() == 0 {
					u.Read(vp, 2400)
				}
			})
		})
	}
	release := make(chan struct{})
	for _, tc := range []struct {
		name   string
		server func(array, lo, hi int) ([]byte, error)
		want   []string
	}{
		{"refused", func(array, lo, hi int) ([]byte, error) {
			return nil, fmt.Errorf("refusing array %d [%d:%d)", array, lo, hi)
		}, []string{"serving read for rank 0", "refusing array 0 [2304:2560)"}},
		{"timed out", func(array, lo, hi int) ([]byte, error) {
			<-release
			return make([]byte, 8*(hi-lo)), nil
		}, []string{"remote read of array 0 [2304:2560) from rank 1", "timed out after 300ms"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			errs := runMeshCfg(t, 2,
				func(rank int, c *Config) {
					c.OpTimeout = 300 * time.Millisecond
					if rank == 1 {
						// The owner waits in its commit for as long as rank
						// 0 waits for the line; rank 0's timeout is the one
						// under test and must fire first.
						c.OpTimeout = 3 * time.Second
					}
					c.DrainTimeout = 100 * time.Millisecond
				},
				func(rank int, eng *Engine) error {
					var de core.DistEngine = eng
					if rank == 1 {
						de = fakeOwner{eng, tc.server}
					} else {
						defer func() {
							select {
							case release <- struct{}{}: // the owner's server was wedged
							default:
							}
						}()
					}
					_, err := core.RunDist(distOpt(2), de, prog)
					return err
				})
			if errs[0] == nil {
				t.Fatal("rank 0's read failed without an error")
			}
			for _, want := range tc.want {
				if !strings.Contains(errs[0].Error(), want) {
					t.Errorf("rank 0's error %q lacks %q", errs[0], want)
				}
			}
		})
	}
}
